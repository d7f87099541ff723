"""Functional SPIDER execution on the SpTC emulator.

Three execution paths:

* :class:`SpiderExecutor` ``.run()`` / ``.run_batch()`` — the *fused fast
  path*: at compile time every encoded kernel row is stacked into one
  precompiled block operator ``K_all`` (m = n_rows * L, see
  :class:`repro.sptc.fused.FusedStencilOperator`), and a sweep is one
  windowing pass over the padded input plus one ``K_all @ X`` GEMM per
  line chunk — instead of one line-gather, one windowing pass and one GEMM
  *per kernel row*.  A large sweep is threaded by output range: after the
  pad, each thread runs the gather, GEMM, accumulate and store of its own
  leading-axis planes (1D: chunks of the line) as one task.  The executor
  itself is immutable compiled data; all large buffers and the MAC thread
  pool belong to the caller's :class:`SweepRunner`, whose workspace arena
  is reused across calls, so steady-state serving performs zero large
  allocations.
* ``._reference_run()`` — the original per-row fast path, kept verbatim in
  structure (per-row line gather, windowing, GEMM, accumulate) as the
  equivalence oracle the fused path is tested bit-identical against.
* ``.run_faithful()`` — the warp-level path: shared-memory tiles, per-lane
  B-fragment loads through the swapped offset functions, metadata
  registers, sparsity selectors and ``mma.sp.m16n8k16`` issues.  Slow;
  used by the test suite and the Table-3 experiment.

All paths support every stencil the substrate can express (1D/2D/3D,
star/box, any radius) because the transformation is rule-based and shape
agnostic (§3.1.2: "does not require the stencil kernel to follow a
particular shape or numerical pattern").

Numerics contract
-----------------
Per output element, both fast paths reduce the per-column product over the
swapped-k slots in a fixed ascending order and accumulate kernel-row
contributions in ascending row order ``q``; the fused MAC is a strictly
ordered einsum kernel (never the platform BLAS, whose per-element
reduction order changes with call shape — see
:mod:`repro.sptc.fused`), so fused and per-row execution are bit-identical
by construction, independent of batch size, grid shape, thread count and
line-block boundaries.  Under ``precision="fp16"`` both paths accumulate
in float32 **from the start** (the MAC dtype); earlier revisions
accumulated in float64 and rounded once at the end, which differed from
pure float32 accumulation by up to one ulp per element and forced an
extra full-array ``astype`` round-trip.  Results are compared with
``np.array_equal`` (``==``) semantics: dropping structurally-zero terms
can flip the sign of an all-zero output, never a value.
"""

from __future__ import annotations

import math
import os
import threading
import time
import weakref
from collections import OrderedDict
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple, Union

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from ..gpu.memory import AccessAudit, audit_warp_access
from ..sptc.formats import Sparse24Matrix
from ..sptc.fused import FusedStencilOperator
from ..sptc.instruction import InstructionStream
from ..sptc.macpool import MacThreadPool, resolve_mac_threads, split_ranges
from ..sptc.mma import MmaPrecision
from ..sptc.mma_sp import (
    mma_sp_lanewise,
    sparse_matmul,
    synthesize_metadata_registers,
)
from ..sptc.warp import Warp
from ..stencil.grid import BoundaryCondition, Grid
from ..stencil.spec import StencilSpec
from .encoding import EncodedKernelRow, build_fused_operator, encode_kernel_row
from .row_swap import baseline_row_offset_fn, swapped_row_offset_fn

__all__ = [
    "FaithfulRunReport",
    "SpiderExecutor",
    "SweepRunner",
    "default_runner",
    "set_stage_hook",
]

#: Optional tracing hook.  ``_STAGE_HOOK()`` is called once per fused
#: sweep and returns an ``emit(stage, start_s, dur_s)`` callable — or
#: ``None``, in which case the sweep takes no clock reads at all.  The
#: serving layer's tracer installs it (:mod:`repro.serve.tracing`); the
#: executor itself never imports the serving layer.
_STAGE_HOOK: Optional[
    Callable[[], Optional[Callable[[str, float, float], None]]]
] = None


def set_stage_hook(
    hook: Optional[Callable[[], Optional[Callable[[str, float, float], None]]]],
) -> None:
    """Install (or clear, with ``None``) the per-sweep stage-span hook."""
    global _STAGE_HOOK
    _STAGE_HOOK = hook


def _rebuild_executor(
    spec_dict: dict,
    precision: str,
    use_sptc: bool,
    batch_rows: int,
) -> "SpiderExecutor":
    """Unpickle hook for :class:`SpiderExecutor` (module-level for pickle)."""
    return SpiderExecutor(
        StencilSpec.from_dict(spec_dict),
        precision,
        use_sptc=use_sptc,
        batch_rows=batch_rows,
    )


def _kernel_row_table(spec: StencilSpec) -> Tuple[np.ndarray, Tuple[int, ...]]:
    """Kernel rows plus the leading-axis offsets each row applies at.

    Returns ``(rows, lead_radius)`` where ``rows`` has shape
    ``(n_rows, 2r+1)`` and row ``q`` applies at leading-axis offset(s)
    ``unravel(q) - lead_radius``.
    """
    side = spec.side
    if spec.dims == 1:
        return spec.weights.reshape(1, side), ()
    if spec.dims == 2:
        return spec.weights.reshape(side, side), (spec.radius,)
    return spec.weights.reshape(side * side, side), (spec.radius, spec.radius)


@dataclass
class FaithfulRunReport:
    """Artifacts of a warp-level run (for Table 3 and the test oracle)."""

    output: np.ndarray
    stream: InstructionStream
    smem_audit: AccessAudit

    @property
    def mma_sp_issues(self) -> int:
        return self.stream.count("mma.sp")

    @property
    def lds_issues(self) -> int:
        return self.stream.count("lds")


class _PlanWorkspace:
    """Preallocated buffers + precomputed row offsets for one geometry.

    A workspace is keyed by grid shape and sized for the largest batch it
    has served (``batch`` is a *capacity*: every per-batch array is a
    leading-dim prefix of the capacity-sized one, so smaller batches run
    in views of the same buffers and variable coalesced batch sizes never
    thrash the arena).  A :class:`SweepRunner` keeps a small LRU of
    workspaces per executor so steady-state serving (same plan, same
    shapes) never allocates grid-sized arrays per call.  Everything here
    is a pure function of the geometry and the runner's thread count:

    * ``padded`` — the stacked, halo-padded input buffer, one row per
      padded *line* (last-axis vector), right-extended with the structural
      x-pad the windowing needs;
    * ``poffs`` — each kernel row's flat padded-line offset: row ``q``
      of the output anchored at padded line ``a`` reads padded line
      ``a + poffs[q]``;
    * ``x*`` / ``y`` — flat GEMM staging buffers of ``cols`` columns,
      one slice per thread: each output range walks its sources in
      sub-blocks that fit its slice;
    * ``acc`` — the flat output accumulator in the MAC dtype, one cell
      per chunk of each padded line, in padded-line order; each output
      range views the cells of its own planes as one contiguous
      ``(L, cells)`` block, lane-major like the GEMM output, so a grid's
      interior lines sit at their padded anchors.  Halo-position anchors
      are never stored, and a grid's trailing halo planes are never
      computed.
    """

    __slots__ = (
        "batch",
        "shape",
        "n",
        "lead_shape",
        "pad_lead",
        "chunks",
        "chunks_ext",
        "pad_lines_per_grid",
        "n_pad_lines",
        "cols",
        "poffs",
        "padded",
        "x_flat",
        "x16_flat",
        "x32_flat",
        "y_flat",
        "acc",
    )

    def __init__(
        self,
        batch: int,
        shape: Tuple[int, ...],
        *,
        radius: int,
        L: int,
        width: int,
        n_x_rows: int,
        m_active: int,
        lead_offset_table: Sequence[Tuple[int, ...]],
        batch_rows: int,
        threads: int,
        acc_dtype: type,
        fp16: bool,
    ) -> None:
        self.batch = batch
        self.shape = shape
        n = shape[-1]
        lead_shape = shape[:-1]
        r = radius
        self.n = n
        self.lead_shape = lead_shape
        self.pad_lead = tuple(s + 2 * r for s in lead_shape)
        self.chunks = math.ceil(n / L)
        need = self.chunks * L - L + width
        # padded-line length rounded to L so lines reshape into an
        # (line, chunk, lane) view the X gather can slice directly
        self.chunks_ext = math.ceil(need / L)
        self.pad_lines_per_grid = (
            int(np.prod(self.pad_lead)) if self.pad_lead else 1
        )
        self.n_pad_lines = batch * self.pad_lines_per_grid
        # one x / y slice per thread: its share of a `batch_rows`-line
        # block, but at least two GEMM column blocks (or the whole block),
        # since smaller numpy calls lose more to GIL hand-offs between
        # threads than they gain; in 2D/3D always whole lines
        blk = min(batch_rows, self.n_pad_lines)
        min_cols = 2 * FusedStencilOperator.COL_BLOCK
        if lead_shape:
            lines = max(
                -(-blk // threads), min(blk, -(-min_cols // self.chunks))
            )
            task_cols = lines * self.chunks
        else:
            cells = blk * self.chunks
            task_cols = max(-(-cells // threads), min(cells, min_cols))
        # the ordered GEMM kernel needs >= 2 columns (see FusedStencilOperator)
        self.cols = threads * max(task_cols, 2)

        # flat padded-line offset of each kernel row's leading offsets
        # (strictly ascending in q: row-major offsets within one halo)
        strides = []
        stride = 1
        for s in reversed(self.pad_lead):
            strides.append(stride)
            stride *= s
        strides.reverse()
        self.poffs = tuple(
            sum(o * st for o, st in zip(off, strides))
            for off in lead_offset_table
        )

        self.padded = np.empty((self.n_pad_lines, self.chunks_ext * L))
        x_size = n_x_rows * self.cols
        if fp16:
            self.x_flat = None
            self.x16_flat = np.empty(x_size, dtype=np.float16)
            self.x32_flat = np.empty(x_size, dtype=np.float32)
        else:
            self.x_flat = np.empty(x_size)
            self.x16_flat = None
            self.x32_flat = None
        self.y_flat = np.empty(m_active * self.cols, dtype=acc_dtype)
        self.acc = np.empty(
            L * self.n_pad_lines * self.chunks, dtype=acc_dtype
        )

    def nbytes(self) -> int:
        total = self.padded.nbytes + self.y_flat.nbytes + self.acc.nbytes
        for buf in (self.x_flat, self.x16_flat, self.x32_flat):
            if buf is not None:
                total += buf.nbytes
        return int(total)


class SweepRunner:
    """Everything a sweep mutates: workspaces, the MAC pool and its lock.

    A compiled :class:`SpiderExecutor` is immutable, so it can be shared
    by any number of threads; the state a sweep writes lives here
    instead, and each caller that sweeps concurrently owns its own
    runner (a worker shard, a process worker, a solve session, the
    service's synchronous path).  Results never depend on the runner:
    every thread count is bit-identical.

    * ``threads`` — the ordered MAC's thread budget, resolved by
      :func:`~repro.sptc.macpool.resolve_mac_threads` (``None`` =
      ``REPRO_MAC_THREADS`` or the usable core count);
    * ``lock`` — held by the executor for the whole of each batch call
      (a chained :meth:`SpiderExecutor.run_batch_steps` included), so
      threads sharing one runner take turns: its workspaces and its pool
      serve one sweep at a time;
    * workspaces — per executor, an LRU of :attr:`MAX_WORKSPACES` grid
      shapes, held in a :class:`weakref.WeakKeyDictionary`: a plan's
      scratch goes when the plan goes, so nothing has to be released;
    * the :class:`~repro.sptc.macpool.MacThreadPool` — created lazily on
      the first parallel dispatch and stopped by :meth:`close`.  A closed
      runner that sweeps again starts a new pool.

    Runners never cross a process boundary: a process builds its own.
    """

    #: workspaces kept per executor (distinct grid shapes)
    MAX_WORKSPACES = 8

    def __init__(self, threads: Optional[int] = None) -> None:
        self.threads = resolve_mac_threads(threads)
        self.lock = threading.Lock()
        # guards the arena bookkeeping against the stats reader; buffer
        # contents are covered by `lock`
        self._arena_lock = threading.Lock()
        #: executor -> OrderedDict(shape -> workspace), LRU order
        self._arenas: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()
        self._workspace_builds = 0
        self._pool: Optional[MacThreadPool] = None

    def pool(self) -> MacThreadPool:
        """The persistent MAC pool, (re)created lazily.

        A pool object that crossed a ``fork`` is dropped without joining
        — its helper threads do not exist in the child and its condition
        variable may have been captured mid-acquire — and a fresh pool is
        built under the child's pid.  Only a same-pid stale pool (e.g.
        one an earlier close shut down) is shut down before replacement.
        """
        pool = self._pool
        if pool is not None and pool.pid == os.getpid() and not pool.closed:
            return pool
        if pool is not None and pool.pid == os.getpid():
            pool.shutdown()
        pool = MacThreadPool(self.threads)
        self._pool = pool
        return pool

    def map_tasks(
        self, fn: Callable[..., None], tasks: Sequence[tuple]
    ) -> None:
        """Run order-free tasks on the MAC pool (or inline when serial).

        The executor dispatches the per-grid pads of a large batch and
        the output ranges of a large sweep here, one call each; tasks
        must write to disjoint destinations.
        """
        if self.threads > 1 and len(tasks) > 1:
            self.pool().run(fn, tasks)
        else:
            for task in tasks:
                fn(*task)

    def workspace(
        self, ex: "SpiderExecutor", batch: int, shape: Tuple[int, ...]
    ) -> _PlanWorkspace:
        """Fetch (or build/grow) ``ex``'s arena for one grid shape.

        Keyed by shape alone: a workspace built for batch ``B`` serves
        every batch ``<= B`` through prefix views, and grows (one rebuild)
        when a larger batch arrives — so mixed coalesced batch sizes reuse
        one arena instead of thrashing the LRU.
        """
        with self._arena_lock:
            arena = self._arenas.get(ex)
            if arena is None:
                arena = self._arenas[ex] = OrderedDict()
            ws = arena.get(shape)
            if ws is None or ws.batch < batch:
                ws = arena[shape] = ex._new_workspace(
                    batch, shape, self.threads
                )
                self._workspace_builds += 1
                while len(arena) > self.MAX_WORKSPACES:
                    arena.popitem(last=False)
            arena.move_to_end(shape)
            return ws

    def workspace_nbytes(self) -> int:
        """Resident bytes of every workspace this runner holds.

        Safe to call from a monitoring thread while the owner sweeps.
        """
        with self._arena_lock:
            arenas = list(self._arenas.values())
            return int(
                sum(ws.nbytes() for arena in arenas for ws in arena.values())
            )

    def close(self) -> None:
        """Stop the MAC pool's helper threads (idempotent).

        Waits for a batch in flight on another thread.  A pool inherited
        from another process is dropped, never joined.
        """
        with self.lock:
            pool, self._pool = self._pool, None
        if pool is not None and pool.pid == os.getpid():
            pool.shutdown()


_DEFAULT_RUNNER: Optional[SweepRunner] = None
_DEFAULT_RUNNER_LOCK = threading.Lock()


def default_runner() -> SweepRunner:
    """The process-wide runner of sweeps that name none (``Spider.run``).

    Created on first use with the adaptive thread count.  Its callers
    take turns on its lock; a caller that sweeps concurrently with
    others passes a runner of its own.
    """
    global _DEFAULT_RUNNER
    with _DEFAULT_RUNNER_LOCK:
        if _DEFAULT_RUNNER is None:
            _DEFAULT_RUNNER = SweepRunner()
        return _DEFAULT_RUNNER


class SpiderExecutor:
    """Compiled SPIDER pipeline for one stencil spec.

    Parameters
    ----------
    spec:
        The stencil to execute.
    precision:
        ``"exact"`` (float64; bitwise-comparable to the reference) or
        ``"fp16"`` (hardware-like numerics: float16 storage, float32
        accumulation end-to-end).
    use_sptc:
        True — strided-swapped kernel + ``mma.sp`` semantics (SPIDER);
        False — unswapped dense kernel matrix + dense ``mma`` semantics
        (the ablation variant *SPIDER w. TC*, §4.4).
    batch_rows:
        Line-block granularity of the fused pipeline (and of the per-row
        reference path's X construction), to bound peak workspace memory
        on large grids.

    An executor holds only its compiled operands and geometry.  The
    sweep entry points take a ``runner`` (:class:`SweepRunner`, default
    :func:`default_runner`) that owns the workspaces, the MAC pool and
    the thread count, so one executor serves any number of threads that
    bring runners of their own.
    """

    #: per-grid padded-element floor below which batch padding stays
    #: serial (a small pad loop is cheaper than pool dispatch)
    PAD_PARALLEL_MIN = 1 << 15

    def __init__(
        self,
        spec: StencilSpec,
        precision: str = MmaPrecision.EXACT,
        *,
        use_sptc: bool = True,
        batch_rows: int = 512,
    ) -> None:
        self.spec = spec
        self.precision = MmaPrecision.validate(precision)
        self.use_sptc = use_sptc
        self.batch_rows = int(batch_rows)
        if self.batch_rows < 1:
            raise ValueError("batch_rows must be >= 1")
        self.stream = InstructionStream()

        rows, self._lead_radius = _kernel_row_table(spec)
        self._rows = rows
        # AOT compilation: encode every kernel row once (offline, §3.1.2)
        self._encoded: List[EncodedKernelRow] = [
            encode_kernel_row(rows[q]) for q in range(rows.shape[0])
        ]
        enc0 = self._encoded[0]
        self.L = enc0.L
        self.width = enc0.width
        self.permutation = enc0.permutation
        self.n_rows = rows.shape[0]
        # AOT stage ➍: the fused block operator K_all (m = n_rows * L)
        self._fused = build_fused_operator(
            self._encoded,
            self.precision,
            use_sptc=use_sptc,
        )
        self._lead_offset_table: Tuple[Tuple[int, ...], ...] = tuple(
            self._lead_offsets(q) for q in range(self.n_rows)
        )

    def __reduce__(self):
        """Pickle as a recompile recipe rather than arrays.  Compilation
        is deterministic, so the rebuilt executor's encoded rows and fused
        operand are bit-identical to the original's.
        """
        return (
            _rebuild_executor,
            (
                self.spec.to_dict(),
                self.precision,
                self.use_sptc,
                self.batch_rows,
            ),
        )

    # ------------------------------------------------------------------
    # Fused fast path
    # ------------------------------------------------------------------
    @property
    def fused_operator(self) -> FusedStencilOperator:
        """The precompiled single-GEMM operator (compile-time artifact)."""
        return self._fused

    @property
    def acc_dtype(self) -> type:
        """Accumulator/output dtype: float64 exact, float32 under fp16."""
        return self._fused.acc_dtype

    def run(
        self, grid: Grid, runner: Optional[SweepRunner] = None
    ) -> np.ndarray:
        """One stencil sweep; returns the updated interior.

        A batch-of-one :meth:`run_batch` (the fused pipeline is the single
        implementation; batching a lone grid is bit-neutral).
        """
        return self.run_batch([grid], runner)[0]

    def run_batch(
        self, grids: Sequence[Grid], runner: Optional[SweepRunner] = None
    ) -> np.ndarray:
        """Fused sweep over a batch of same-shape grids.

        The grids are stacked along a leading batch axis *after* per-grid
        halo padding (so boundary conditions never couple across requests)
        and the whole batch then flows through the fused ``K_all @ X``
        pipeline: one windowing pass over the padded lines, one GEMM per
        line block spanning every kernel row and every request, and one
        in-order accumulation pass per kernel row.

        Returns an array of shape ``(len(grids), *grid_shape)`` whose
        slice ``b`` is bit-identical to ``self.run(grids[b])`` — each X
        column holds one output chunk of one padded line, and per output
        element the reduction order is fixed (ascending swapped-k inside
        the GEMM, ascending kernel row ``q`` across GEMM blocks), so
        batching never perturbs the numerics.  Under ``fp16`` the result
        is float32, accumulated in float32 throughout (see the module
        docstring's numerics contract).  ``runner`` (default
        :func:`default_runner`) supplies the scratch and the MAC threads.
        """
        grids, shape = self._validate_batch(grids)
        out = np.empty((len(grids),) + shape, dtype=self.acc_dtype)
        self._run_fused(grids, shape, out, runner)
        return out

    def run_batch_split(
        self,
        grids: Sequence[Grid],
        out: Optional[List[np.ndarray]] = None,
        runner: Optional[SweepRunner] = None,
    ) -> List[np.ndarray]:
        """Fused sweep returning one freshly-owned array per request.

        Identical numerics to :meth:`run_batch`; the results are written
        straight from the workspace accumulator into per-request
        contiguous arrays, so a caller retaining one result neither pins a
        whole-batch buffer nor pays a second copy (the serving worker's
        old ``out.copy()``).

        ``out`` supplies the per-request destination arrays instead of
        allocating fresh ones — the shared-memory transport passes
        slab-backed views here, so results are materialized directly into
        shared memory with no intermediate buffer.
        """
        grids, shape = self._validate_batch(grids)
        outs = self._check_out(out, len(grids), shape)
        self._run_fused(grids, shape, outs, runner)
        return outs

    def _check_out(
        self,
        out: Optional[List[np.ndarray]],
        batch: int,
        shape: Tuple[int, ...],
    ) -> List[np.ndarray]:
        """Validate caller-supplied destinations (or allocate fresh ones)."""
        if out is None:
            return [
                np.empty(shape, dtype=self.acc_dtype) for _ in range(batch)
            ]
        if len(out) != batch:
            raise ValueError(
                f"out supplies {len(out)} arrays for a batch of {batch}"
            )
        for o in out:
            if o.shape != shape or o.dtype != self.acc_dtype:
                raise ValueError(
                    f"out arrays must be shape {shape} dtype "
                    f"{np.dtype(self.acc_dtype)}, got {o.shape} {o.dtype}"
                )
            if not o.flags.c_contiguous:
                # results are written through a reshape view of the
                # destination; a non-contiguous array would reshape to a
                # copy and silently never receive the data
                raise ValueError("out arrays must be C-contiguous")
        return list(out)

    def run_batch_steps(
        self,
        grids: Sequence[Grid],
        steps: int,
        out: Optional[List[np.ndarray]] = None,
        runner: Optional[SweepRunner] = None,
    ) -> List[np.ndarray]:
        """``steps`` chained sweeps of a batch — the temporal super-sweep.

        Byte-identical to the client-visible alternative (run one sweep,
        wrap each result in a ``Grid`` with the same boundary condition,
        resubmit, ``steps`` times): every sweep performs the same
        floating-point operations in the same order, and the intermediate
        float64 re-wrap under ``fp16`` is bit-neutral because
        float32→float64 widening is exact.  What the chained form *skips*
        is the per-sweep serving overhead — per-grid ``Grid``
        construction, batch re-validation, and a fresh whole-batch output
        allocation + copy per sweep; intermediates are stored straight
        into the padded buffer's centers, where the next sweep's halo pad
        finds them in place.
        """
        grids, shape = self._validate_batch(grids)
        if steps < 1:
            raise ValueError(f"steps must be >= 1, got {steps}")
        bcs = [g.bc for g in grids]
        sources: List[Tuple[np.ndarray, BoundaryCondition]] = [
            (g.data, g.bc) for g in grids
        ]
        # a chained ZERO-BC sweep can skip re-writing the halo and
        # structural pad: the previous sweep left them zero, only the
        # center changes (value-dependent BCs re-pad fully every sweep)
        all_zero = all(bc is BoundaryCondition.ZERO for bc in bcs)
        pad_mode = "full"
        outs = self._check_out(out, len(grids), shape)
        runner = runner or default_runner()
        # one hold for the whole chain: the intermediates live in the
        # workspace's padded buffer, which another caller would pad over
        with runner.lock:
            for _ in range(steps - 1):
                views = self._sweep_sources(
                    sources, shape, None, runner, pad_mode
                )
                sources = list(zip(views, bcs))
                if all_zero:
                    pad_mode = "center"
            self._sweep_sources(sources, shape, outs, runner, pad_mode)
        return outs

    # -- fused internals ------------------------------------------------
    def _validate_batch(
        self, grids: Sequence[Grid]
    ) -> Tuple[List[Grid], Tuple[int, ...]]:
        grids = list(grids)
        if not grids:
            raise ValueError("run_batch needs at least one grid")
        shape = grids[0].shape
        for g in grids:
            if g.dims != self.spec.dims:
                raise ValueError(
                    f"{self.spec.dims}D executor got a {g.dims}D grid"
                )
            if g.shape != shape:
                raise ValueError(
                    f"all grids in a batch must share one shape; got "
                    f"{g.shape} vs {shape}"
                )
        return grids, shape

    def _new_workspace(
        self, batch: int, shape: Tuple[int, ...], threads: int
    ) -> _PlanWorkspace:
        """A fresh workspace for ``batch`` grids of ``shape`` swept on
        ``threads`` (the runner's arena calls this on a miss or a larger
        batch)."""
        return _PlanWorkspace(
            batch,
            shape,
            radius=self.spec.radius,
            L=self.L,
            width=self.width,
            n_x_rows=self._fused.n_x_rows,
            m_active=self._fused.m_active,
            lead_offset_table=self._lead_offset_table,
            batch_rows=self.batch_rows,
            threads=threads,
            acc_dtype=self.acc_dtype,
            fp16=self.precision == MmaPrecision.FP16,
        )

    def _run_fused(
        self,
        grids: List[Grid],
        shape: Tuple[int, ...],
        dest: Union[np.ndarray, List[np.ndarray]],
        runner: Optional[SweepRunner],
    ) -> None:
        """One fused sweep into ``dest`` (a (B, *shape) array or B views)
        on ``runner`` (default :func:`default_runner`), under its lock."""
        runner = runner or default_runner()
        with runner.lock:
            self._sweep_sources(
                [(g.data, g.bc) for g in grids], shape, dest, runner
            )

    def _sweep_sources(
        self,
        sources: Sequence[Tuple[np.ndarray, BoundaryCondition]],
        shape: Tuple[int, ...],
        dest: Union[np.ndarray, List[np.ndarray], None],
        runner: SweepRunner,
        pad_mode: str = "full",
    ) -> Union[np.ndarray, List[np.ndarray]]:
        """One fused sweep of ``(data, bc)`` sources into ``dest``;
        returns the destinations.

        The ``Grid``-free inner form shared by the single-sweep entry
        points and the chained :meth:`run_batch_steps`.  ``dest=None``
        stores the results into the centers of the workspace's padded
        buffer and returns those per-grid views (valid until the next
        sweep through this workspace pads over them — the chained path
        feeds them to that very pad, whose center write is then a
        self-assignment numpy skips).  ``pad_mode="center"`` rewrites only
        the interior of the padded buffer, relying on halos a previous
        ZERO-BC sweep already zeroed.  The caller holds ``runner.lock``.

        After the pad, the sweep is cut into output ranges of the units
        the store reads: leading-axis planes of each grid (1D: chunks of
        the line).  A sweep of at least ``COL_BLOCK`` cells gets
        ``min(runner.threads, units)`` ranges, a smaller one a single
        range.  Each range runs gather → ordered GEMM → ascending-q add →
        store as one task of one :meth:`SweepRunner.map_tasks` call, in
        its own slice of the workspace's x / y buffers; it recomputes the
        GEMM columns its last anchors read past its end rather than share
        them, so no task waits for another.
        """
        B = len(sources)
        hook = _STAGE_HOOK
        emit = hook() if hook is not None else None
        ws = runner.workspace(self, B, shape)
        op = self._fused
        L = self.L
        chunks = ws.chunks
        fp16 = self.precision == MmaPrecision.FP16
        n_x, m_act = op.n_x_rows, op.m_active
        # the workspace is sized for its largest batch so far; this call's
        # batch runs in leading-dim prefix views of the same buffers
        n_pad_lines = B * ws.pad_lines_per_grid

        padded2d = ws.padded[:n_pad_lines]
        padded_grids = padded2d.reshape(
            (B,) + ws.pad_lead + (ws.chunks_ext * L,)
        )
        r = self.spec.radius
        center = tuple(slice(r, r + s) for s in shape)
        if emit is not None:
            t_pad = time.monotonic()
        # per-grid pads write disjoint padded_grids[b] slices, so large
        # batches spread over the MAC pool (order-free: no grid's halo
        # reads another grid's buffer)
        if pad_mode == "center":

            def pad_one(b: int) -> None:
                padded_grids[b][center] = sources[b][0]

        else:

            def pad_one(b: int) -> None:
                data, bc = sources[b]
                self._pad_into(data, bc, padded_grids[b])

        if (
            runner.threads > 1
            and B >= 2
            and padded_grids[0].size >= self.PAD_PARALLEL_MIN
        ):
            runner.map_tasks(pad_one, [(b,) for b in range(B)])
        else:
            for b in range(B):
                pad_one(b)
        if emit is not None:
            emit("mac.pad", t_pad, time.monotonic() - t_pad)
        # (line, chunk, lane) view: element [p, j, t] = padded[p, j*L + t],
        # so swapped X row i is the strided slice [:, sh_i : sh_i+chunks, t_i]
        padded_lanes = padded2d.reshape(n_pad_lines, ws.chunks_ext, L)

        # output cell e = a * chunks + c is chunk c of the output anchored
        # at padded line a; active row q reads source cell e + coffs[q]
        coffs = [ws.poffs[q] * chunks for q in op.active_kernel_rows]
        n_cells = n_pad_lines * chunks

        # output units: each grid's first `stored` of `per_grid` units,
        # `unit` anchor cells apiece
        lead = ws.lead_shape
        if lead:
            per_grid, stored = ws.pad_lead[0], lead[0]
            unit_shape = ws.pad_lead[1:] + (chunks,)
        else:
            per_grid = stored = chunks
            unit_shape = ()
        unit = math.prod(unit_shape)
        n_units = B * stored
        n_ranges = (
            min(runner.threads, n_units) if n_cells >= op.COL_BLOCK else 1
        )
        cols = ws.cols // n_ranges  # each range's slice of x / y
        inner = tuple(slice(0, s) for s in lead[1:])
        store_in_task = dest is not None
        # GEMM columns issued per range; this thread records their sum in
        # the instruction stream, whose counters take no lock
        gemm_cols = [0] * n_ranges

        def span(u0: int, u1: int) -> Tuple[int, int, np.ndarray]:
            """Padded units [pu0, pu1) holding stored units [u0, u1), and
            their accumulator: ``ws.acc`` cells of those units, laid out
            (lane, cell) like the GEMM's y rows (m = row * L + lane) and
            contiguous per range, so its slices add at numpy's fast path.
            """
            pu0 = u0 // stored * per_grid + u0 % stored
            pu1 = (u1 - 1) // stored * per_grid + (u1 - 1) % stored + 1
            acc = ws.acc[L * pu0 * unit : L * pu1 * unit]
            return pu0, pu1, acc.reshape(L, (pu1 - pu0) * unit)

        def sweep_range(k: int, u0: int, u1: int) -> None:
            pu0, pu1, acc = span(u0, u1)
            lo, hi = pu0 * unit, pu1 * unit
            acc[...] = 0
            # output cell e takes row q from source cell e + coffs[q],
            # which rises with q; sub-blocks walk the sources in ascending
            # order, so row q's term lands in an earlier sub-block than
            # row q+1's or in the same one, where rows add in ascending
            # q.  Ranges own disjoint anchor cells, so every element
            # still sums its rows in ascending q — the numerics contract
            # — for any thread count, batch size and batch_rows.  (Rows
            # past the buffer feed only halo-position anchors; an
            # operator with no active rows leaves the range zero.)
            s, s_end = (
                (lo + coffs[0], min(hi + coffs[-1], n_cells))
                if coffs
                else (0, 0)
            )
            xs = (ws.x16_flat if fp16 else ws.x_flat)[k * n_x * cols :]
            ys = ws.y_flat[k * m_act * cols :]
            while s < s_end:
                if emit is not None:
                    t_gather = time.monotonic()
                p0, c0 = divmod(s, chunks)
                take = min(cols, s_end - s)
                if c0 == 0 and take >= chunks:  # whole lines (2D, 3D)
                    nl, cw = take // chunks, chunks
                else:  # a run of one 1D line's chunks
                    nl, cw = 1, min(take, chunks - c0)
                cells = nl * cw
                # einsum's ordered kernel needs >= 2 columns; pad with
                # zeros (slicing back to `cells` is a view)
                n_exec = max(cells, 2)
                x2 = xs[: n_x * n_exec].reshape(n_x, n_exec)
                if n_exec > cells:
                    x2[:, cells:] = 0
                x3 = x2[:, :cells].reshape(n_x, nl, cw)
                block = padded_lanes[p0 : p0 + nl]
                for i, (sh, t) in enumerate(op.x_row_taps):
                    np.copyto(x3[i], block[:, c0 + sh : c0 + sh + cw, t])
                if fp16:
                    x32 = ws.x32_flat[k * n_x * cols :][: n_x * n_exec]
                    x32 = x32.reshape(n_x, n_exec)
                    np.copyto(x32, x2)
                    x2 = x32
                y2 = ys[: m_act * n_exec].reshape(m_act, n_exec)
                if emit is not None:
                    t_gemm = time.monotonic()
                    emit("mac.gather", t_gather, t_gemm - t_gather)
                # the operator emits one mac.gemm span per column block
                op.execute(x2, out=y2, emit=emit)
                gemm_cols[k] += n_exec
                if emit is not None:
                    t_scatter = time.monotonic()
                for qi, off in enumerate(coffs):
                    e0, e1 = max(lo, s - off), min(hi, s + cells - off)
                    if e0 < e1:
                        acc[:, e0 - lo : e1 - lo] += y2[
                            qi * L : (qi + 1) * L, e0 + off - s : e1 + off - s
                        ]
                if emit is not None:
                    emit(
                        "mac.scatter", t_scatter, time.monotonic() - t_scatter
                    )
                s += cells
            if store_in_task:
                store_range(u0, u1)

        def store_range(u0: int, u1: int) -> None:
            if emit is not None:
                t_store = time.monotonic()
            pu0, pu1, acc = span(u0, u1)
            acc_units = acc.reshape((L, pu1 - pu0) + unit_shape)
            # the lane transpose: (L, units, *inner, chunks) anchors of
            # grid b into its lines, tail lanes of a last axis that is not
            # a multiple of L one by one
            for b in range(u0 // stored, (u1 - 1) // stored + 1):
                z0 = max(u0 - b * stored, 0)
                z1 = min(u1 - b * stored, stored)
                rows = slice(b * per_grid + z0 - pu0, b * per_grid + z1 - pu0)
                src = acc_units[(slice(None), rows) + inner]
                d = dest[b][z0:z1] if lead else dest[b][z0 * L : z1 * L]
                nf = d.shape[-1] // L
                np.copyto(
                    d[..., : nf * L].reshape(
                        d.shape[:-1] + (nf, L), copy=False
                    ),
                    src[..., :nf].transpose(*range(1, src.ndim), 0),
                )
                for t in range(d.shape[-1] - nf * L):
                    d[..., nf * L + t] = src[t, ..., nf]
            if emit is not None:
                emit("mac.store", t_store, time.monotonic() - t_store)

        ranges = split_ranges(n_units, n_ranges)
        if n_ranges == 1:
            sweep_range(0, 0, n_units)
        else:
            runner.map_tasks(
                sweep_range,
                [(k, u0, u1) for k, (u0, u1) in enumerate(ranges)],
            )
        op.record_issues(self.stream, sum(gemm_cols))
        if dest is None:
            # chained sweeps store straight into the padded centers, where
            # the next sweep's pad finds them already in place; ranges read
            # their neighbours' centers as sources, so the stores wait for
            # every range to finish
            dest = [padded_grids[b][center] for b in range(B)]
            runner.map_tasks(store_range, ranges)
        return dest

    def _pad_into(
        self, data: np.ndarray, bc: BoundaryCondition, dest: np.ndarray
    ) -> None:
        """Halo-pad an array into a preallocated buffer (np.pad semantics).

        Fills ``dest`` of shape ``tuple(s + 2r) + (need,)`` exactly as the
        reference path's ``np.pad(grid.padded(r), ...)`` would, axis by
        axis (np.pad pads sequentially, later axes reading earlier axes'
        halos), without allocating.  The structural x-pad beyond
        ``n + 2r`` is zero.  ``data`` may be any dtype that widens exactly
        to the buffer's float64 (the chained multi-sweep path feeds
        float32 intermediates under fp16).
        """
        r = self.spec.radius
        d = data.ndim
        n = data.shape[-1]
        if bc is BoundaryCondition.REFLECT and any(
            s < r + 1 for s in data.shape
        ):
            raise ValueError(
                "REFLECT boundary needs every grid side > radius"
            )
        dest[..., n + 2 * r :] = 0.0
        center = tuple(slice(r, r + s) for s in data.shape)
        dest[center] = data
        for axis in range(d):
            s = data.shape[axis]

            def at(idx):
                return (slice(None),) * axis + (idx,)

            left, right = at(slice(0, r)), at(slice(r + s, 2 * r + s))
            if bc is BoundaryCondition.ZERO:
                dest[left] = 0.0
                dest[right] = 0.0
            elif bc is BoundaryCondition.PERIODIC:
                # modular gather handles halos wider than the period too
                dest[left] = dest[at((np.arange(-r, 0) % s) + r)]
                dest[right] = dest[at((np.arange(s, s + r) % s) + r)]
            elif bc is BoundaryCondition.NEAREST:
                dest[left] = dest[at(slice(r, r + 1))]
                dest[right] = dest[at(slice(r + s - 1, r + s))]
            else:  # REFLECT (edge value not repeated)
                dest[left] = dest[at(slice(2 * r, r, -1))]
                dest[right] = dest[at(slice(r + s - 2, s - 2, -1))]

    # ------------------------------------------------------------------
    # Per-row reference path (the pre-fusion fast path, kept as oracle)
    # ------------------------------------------------------------------
    def _reference_run(self, grids: Sequence[Grid]) -> np.ndarray:
        """The original per-row fast path: one line gather, one windowing
        pass and one GEMM **per kernel row**.

        Kept (allocations and all) as the equivalence oracle: the fused
        pipeline must reproduce this bit-for-bit wherever the platform
        GEMM is stacking-deterministic, and the benchmark suite measures
        the fused path's speedup against it.  Shares the numerics contract
        of :meth:`run_batch` (float32 accumulation under fp16) and the
        GEMM datapath (:meth:`FusedStencilOperator.row_gemm`).
        """
        grids, shape = self._validate_batch(grids)
        B = len(grids)
        r = self.spec.radius
        n = shape[-1]
        lead_shape = shape[:-1]
        L, W = self.L, self.width
        chunks = math.ceil(n / L)
        npad = chunks * L

        stacked = np.stack([self._pad_lines(g) for g in grids])
        need = npad - L + W
        extra = need - stacked.shape[-1]
        if extra > 0:
            pad_spec = [(0, 0)] * (stacked.ndim - 1) + [(0, extra)]
            stacked = np.pad(stacked, pad_spec)
        lines_view = stacked.reshape(-1, stacked.shape[-1])

        # the batch axis joins the leading geometry, unpadded (offset 0)
        full_lead = (B,) + lead_shape
        pad_lead = (B,) + tuple(s + 2 * r for s in lead_shape)
        n_lines = B * (int(np.prod(lead_shape)) if lead_shape else 1)
        out2d = np.zeros((n_lines, n), dtype=self.acc_dtype)

        for q in range(self.n_rows):
            lead_off = (0,) + self._lead_offsets(q)
            for l0 in range(0, n_lines, self.batch_rows):
                l1 = min(l0 + self.batch_rows, n_lines)
                src = self._gather_lines(
                    lines_view, full_lead, pad_lead, lead_off, l0, l1
                )
                windows = sliding_window_view(src, W, axis=1)[:, ::L, :]
                windows = windows[:, :chunks, :]
                x = windows.transpose(2, 0, 1).reshape(W, -1)
                y = self._gemm(self._encoded[q], x)
                y = (
                    y.reshape(L, l1 - l0, chunks)
                    .transpose(1, 2, 0)
                    .reshape(l1 - l0, npad)[:, :n]
                )
                out2d[l0:l1] += y
        return out2d.reshape((B,) + shape)

    def _gemm(self, enc: EncodedKernelRow, x: np.ndarray) -> np.ndarray:
        """Seed per-row ``K @ X`` through the emulator datapath (sparse
        select-then-MAC, or the dense ablation)."""
        if self.use_sptc:
            x_perm = x[enc.permutation]
            return sparse_matmul(
                enc.sparse, x_perm, precision=self.precision, stream=self.stream
            )
        dense = enc.dense_unswapped
        if self.precision == MmaPrecision.FP16:
            d = dense.astype(np.float16).astype(np.float32) @ x.astype(
                np.float16
            ).astype(np.float32)
        else:
            d = dense @ x
        issues = (
            -(-dense.shape[0] // 16) * -(-x.shape[1] // 8) * -(-dense.shape[1] // 16)
        )
        self.stream.emit("mma", "m16n8k16", count=issues)
        return d

    # -- helpers --------------------------------------------------------
    def _pad_lines(self, grid: Grid) -> np.ndarray:
        """BC-pad: radius r on every axis except structural x-pad (added later)."""
        return grid.padded(self.spec.radius)

    def _lead_offsets(self, q: int) -> Tuple[int, ...]:
        """Leading-axis offsets (0-based into the padded array) for row q."""
        if self.spec.dims == 1:
            return ()
        if self.spec.dims == 2:
            return (q,)
        side = self.spec.side
        return (q // side, q % side)

    def _gather_lines(
        self,
        lines_view: np.ndarray,
        lead_shape: Tuple[int, ...],
        pad_lead: Tuple[int, ...],
        lead_off: Tuple[int, ...],
        l0: int,
        l1: int,
    ) -> np.ndarray:
        """Line gather shared by the reference and faithful paths: rows of
        the padded array feeding output lines [l0, l1) for one kernel row
        (padded line index = interior index + per-axis offset), with
        explicit padded leading geometry so a batch axis can be prepended
        unpadded."""
        if not lead_shape:
            return lines_view[l0:l1]
        idx = np.arange(l0, l1)
        coords = np.unravel_index(idx, lead_shape)
        flat = np.zeros_like(idx)
        stride = 1
        padded_coords = [c + o for c, o in zip(coords, lead_off)]
        for dim in reversed(range(len(pad_lead))):
            flat = flat + padded_coords[dim] * stride
            stride *= pad_lead[dim]
        return lines_view[flat]

    # ------------------------------------------------------------------
    # Faithful warp-level path
    # ------------------------------------------------------------------
    def run_faithful(
        self, grid: Grid, *, apply_row_swap: bool = True
    ) -> FaithfulRunReport:
        """Warp-level emulated sweep (small grids only).

        ``apply_row_swap=False`` runs the *without row swapping* kernel of
        Table 3: identical workload and addressing structure, but loading
        from an explicitly pre-permuted shared-memory tile with baseline
        offsets (the explicit-copy alternative §3.2 argues against).  Both
        settings produce the correct result; what Table 3 compares is their
        cost, which the report captures.
        """
        if grid.num_points > 1 << 16:
            raise ValueError(
                "the faithful path is an emulator oracle; use grids of at "
                "most 65536 points"
            )
        shape = grid.shape
        n = shape[-1]
        lead_shape = shape[:-1]
        n_lines = int(np.prod(lead_shape)) if lead_shape else 1
        pad_lead = tuple(s + 2 * self.spec.radius for s in lead_shape)
        out2d = np.zeros((n_lines, n), dtype=np.float64)
        padded = self._pad_lines(grid)
        L, W = self.L, self.width
        chunks = math.ceil(n / L)
        npad = chunks * L
        need = npad - L + W
        extra = need - padded.shape[-1]
        if extra > 0:
            pad_spec = [(0, 0)] * (padded.ndim - 1) + [(0, extra)]
            padded = np.pad(padded, pad_spec)
        lines_view = padded.reshape(-1, padded.shape[-1])

        stream = InstructionStream()
        audit = AccessAudit(0, 0, 0, 0)
        warp = Warp(stream=stream)

        for q in range(self._rows.shape[0]):
            enc = self._encoded[q]
            lead_off = self._lead_offsets(q)
            src = self._gather_lines(
                lines_view, lead_shape, pad_lead, lead_off, 0, n_lines
            )
            windows = sliding_window_view(src, W, axis=1)[:, ::L, :]
            windows = windows[:, :chunks, :]
            x = windows.transpose(2, 0, 1).reshape(W, -1)  # "shared memory"
            if apply_row_swap:
                smem = x
            else:
                smem = x[enc.permutation]  # explicit pre-permuted copy
                stream.emit(
                    "sts", "row_swap_copy", count=x.shape[0], nbytes=x.nbytes
                )
            y, tile_audit = self._gemm_lanewise(
                enc, smem, warp, swapped=apply_row_swap
            )
            audit = audit.merge(tile_audit)
            y = (
                y.reshape(L, n_lines, chunks)
                .transpose(1, 2, 0)
                .reshape(n_lines, npad)[:, :n]
            )
            out2d += y
        return FaithfulRunReport(
            output=out2d.reshape(grid.shape), stream=stream, smem_audit=audit
        )

    def _k_tile(self, enc: EncodedKernelRow, kk: int) -> Sparse24Matrix:
        """Compressed (16-row padded) A tile for mma.sp invocation kk."""
        vals = enc.sparse.values[:, 8 * kk : 8 * kk + 8]
        poss = enc.sparse.positions[:, 8 * kk : 8 * kk + 8]
        m = vals.shape[0]
        if m < 16:
            vals = np.vstack([vals, np.zeros((16 - m, 8), dtype=vals.dtype)])
            pad_pos = np.tile(
                np.array([0, 1], dtype=np.uint8), (16 - m, 4)
            )
            poss = np.vstack([poss, pad_pos])
        return Sparse24Matrix(vals, poss, 16)

    def _gemm_lanewise(
        self,
        enc: EncodedKernelRow,
        smem: np.ndarray,
        warp: Warp,
        *,
        swapped: bool,
    ) -> Tuple[np.ndarray, AccessAudit]:
        if not self.use_sptc:
            raise ValueError("the faithful path emulates the SpTC variant")
        L, W = enc.L, enc.width
        c_total = smem.shape[1]
        num_k_tiles = W // 16
        y = np.zeros((16, c_total), dtype=np.float64)
        audit = AccessAudit(0, 0, 0, 0)
        selector = 0
        for n0 in range(0, c_total, 8):
            acc = np.zeros((32, 4), dtype=np.float64)
            for kk in range(num_k_tiles):
                a_tile = self._k_tile(enc, kk)
                if swapped:
                    offset_fn = swapped_row_offset_fn(enc.radius, kk, L)
                else:
                    offset_fn = baseline_row_offset_fn(kk)
                regs, addrs = warp.load_b_fragment(
                    smem, k_base=0, n_base=n0, row_offset_fn=offset_fn
                )
                audit = audit.merge(audit_warp_access(addrs, elem_bytes=2))
                meta = synthesize_metadata_registers(a_tile, selector)
                acc = mma_sp_lanewise(
                    a_tile,
                    regs,
                    acc,
                    metadata_regs=meta,
                    selector=selector,
                    precision=self.precision,
                    stream=warp.stream,
                )
            tile = np.zeros((16, 8), dtype=np.float64)
            warp.store_acc_fragment(tile, acc, m_base=0, n_base=0)
            n_hi = min(n0 + 8, c_total)
            y[:, n0:n_hi] += tile[:, : n_hi - n0]
        return y[:L], audit
