"""Precompiled fused SpTC operator: all kernel rows in one GEMM.

The paper's thesis is that a stencil becomes *one* sparse-tensor-core GEMM
after the 2:4 transformation.  The executor's original fast path still
issued one :func:`~repro.sptc.mma_sp.sparse_matmul` per kernel row (``side``
GEMMs for 2D, ``side²`` for 3D), each with its own line gather, windowing
pass, selection gather and ``(m, k/2, n)`` einsum intermediate.  This
module provides the compile-time alternative: every encoded row's
compressed matrix is stacked vertically into one block operator ``K_all``
with ``m = n_rows * L``, and the selection stage is applied **once at
build time** through the precomputed index tensor
(:meth:`~repro.sptc.formats.Sparse24Matrix.selection_indices`), yielding a
dense operand whose structural zeros are then compacted away
(all-zero kernel-row blocks and all-zero k-columns are dropped).

Numerics contract
-----------------
Execution is a *strictly ordered* matrix product: per output element the
reduction runs over the swapped-k slots in ascending order — exactly the
order of the emulator's select-then-MAC einsum, because the selection
indices are strictly increasing along the compressed slots of every row.
The kernel is built on ``np.einsum`` (whose sum-of-products loop is fixed
and independent of operand shape, column offsets or blocking), **not** on
the platform BLAS: BLAS GEMMs choose differently-ordered kernels per call
shape, which would make results depend on batch size and grid shape at the
last ulp.  The one shape einsum itself special-cases is a single output
column (n = 1 degenerates into its unrolled inner-product kernel), so
:meth:`FusedStencilOperator.execute` always issues calls with at least two
columns — zero-padding the block when needed.  Consequently a fused
``K_all @ X`` is bit-identical to issuing the per-row products one at a
time — the property the executor's fused/reference equivalence oracle
asserts — and batching requests can never perturb a request's numerics.

Dropping structurally-zero rows/columns and skipping the interleaved zero
slots is exact for finite inputs up to the sign of zero outputs
(``x + 0.0`` is bitwise ``x`` for every finite non-zero ``x``), which is
why equality is asserted with ``==``-semantics (``np.array_equal``), not
bit-pattern comparison of signed zeros.
"""

from __future__ import annotations

import time
from typing import Callable, List, Optional, Sequence

import numpy as np

from .formats import Sparse24Matrix
from .instruction import InstructionStream
from .macpool import col_blocks
from .mma import MmaPrecision
from .mma_sp import MMA_SP_M16N8K16

__all__ = ["FusedStencilOperator"]


def _rebuild_fused_operator(
    stacked: Sparse24Matrix,
    L: int,
    permutation: Optional[np.ndarray],
    dense_rows: Optional[List[np.ndarray]],
    precision: str,
) -> "FusedStencilOperator":
    """Unpickle hook for :class:`FusedStencilOperator` (module-level for
    pickle): re-run the build from the compressed operand, so compaction,
    selection expansion and index tensors are regenerated rather than
    shipped."""
    return FusedStencilOperator(
        stacked,
        L,
        permutation,
        dense_rows=dense_rows,
        precision=precision,
    )


class FusedStencilOperator:
    """All kernel rows of one stencil as a single precompiled operator.

    Parameters
    ----------
    stacked:
        ``K_all`` in compressed 2:4 form — every kernel row's matrix
        stacked along ``m`` (see
        :func:`repro.core.encoding.stack_encoded_rows`, which also
        validates that the rows share geometry and permutation).
    L:
        Output rows per kernel row; ``stacked.m`` must be a multiple.
    permutation:
        The shared input-row permutation of the strided swap (identical
        for every row of one stencil).  ``None`` for the dense-TC ablation,
        where the operator multiplies unswapped operands.
    dense_rows:
        Unswapped dense kernel matrices; required iff ``permutation`` is
        None (the ``SPIDER w. TC`` variant).
    precision:
        ``"exact"`` or ``"fp16"``; the operand is cast once at build time
        (float64, or float16 storage widened to float32 for the MAC).

    The operator is immutable compiled data: it holds no thread pool, no
    scratch and no lock, so any number of threads may execute it at once.
    Parallelism comes from the executor, which runs one output range of
    a sweep per thread (see :meth:`execute`).
    """

    #: column block of the ordered MAC — sized so one block of operand,
    #: input and output stays cache-resident.  The executor also splits
    #: a sweep of at least this many cells into per-thread output ranges.
    COL_BLOCK = 4096

    def __init__(
        self,
        stacked: Sparse24Matrix,
        L: int,
        permutation: Optional[np.ndarray],
        *,
        dense_rows: Optional[Sequence[np.ndarray]] = None,
        precision: str = MmaPrecision.EXACT,
    ) -> None:
        self.precision = MmaPrecision.validate(precision)
        if L < 1 or stacked.m % L:
            raise ValueError(
                f"stacked operator rows ({stacked.m}) must be a multiple of "
                f"L ({L})"
            )
        self.L = L
        self.width = stacked.k
        self.n_rows = stacked.m // L
        self.m = stacked.m
        self.use_sptc = permutation is not None

        #: K_all in compressed 2:4 form (m = n_rows * L) — the block
        #: operator itself; kept for diagnostics and storage accounting.
        self.sparse = stacked
        # warm the static selection-index tensor once per plan
        self.sparse.selection_indices()

        if self.use_sptc:
            assert permutation is not None
            self.permutation = np.asarray(permutation)
            expanded = self.sparse.selection_expand()
        else:
            if dense_rows is None:
                raise ValueError("the dense-TC variant needs dense_rows")
            self.permutation = np.arange(self.width)
            expanded = np.vstack(list(dense_rows))
        if self.precision == MmaPrecision.FP16:
            self.kernel = expanded.astype(np.float16).astype(np.float32)
        else:
            self.kernel = expanded.astype(np.float64)

        # -- structural compaction (exact up to signs of zero outputs) --
        # a kernel-row block is all-or-nothing: each of its L matrix rows
        # repeats the same tap multiset, so blocks with any non-zero tap
        # have no all-zero rows
        blocks = self.kernel.reshape(self.n_rows, self.L, self.width)
        self.active_kernel_rows: List[int] = [
            q for q in range(self.n_rows) if np.any(blocks[q])
        ]
        self.m_active = len(self.active_kernel_rows) * self.L
        if self.active_kernel_rows:
            act = self.kernel.reshape(self.n_rows, self.L, self.width)[
                self.active_kernel_rows
            ].reshape(self.m_active, self.width)
            cols = np.where(np.any(act != 0, axis=0))[0]
        else:
            act = self.kernel[:0]
            cols = np.array([], dtype=np.int64)
        self.active_cols = cols
        self.kernel_compact = np.ascontiguousarray(act[:, cols])
        #: (chunk shift, lane) of the window column feeding each compact X
        #: row — the strided swap folded into the gather: X_swapped[i] =
        #: window column permutation[active_cols[i]]
        self.x_row_taps = tuple(
            divmod(int(w), self.L) for w in self.permutation[cols]
        )

    # ------------------------------------------------------------------
    def __reduce__(self):
        """Pickle as constructor arguments (compressed operand + geometry).

        The expanded/compacted operands and index tensors are deterministic
        functions of the build inputs, so the rebuilt operator is
        bit-identical.  For the dense-TC ablation the original
        ``dense_rows`` are recovered from the stored operand: under
        ``"exact"`` the operand *is* the float64 input, and under
        ``"fp16"`` the stored values are already float16-representable, so
        the rebuild's fp16 cast is exact (idempotent).
        """
        if self.use_sptc:
            dense_rows = None
            permutation: Optional[np.ndarray] = self.permutation
        else:
            blocks = self.kernel.reshape(self.n_rows, self.L, self.width)
            dense_rows = [np.asarray(blocks[q]) for q in range(self.n_rows)]
            permutation = None
        # ship the compressed operand *without* its warmed selection-index
        # cache (the rebuild re-derives and re-warms it), keeping the
        # payload to values + positions
        sparse = Sparse24Matrix(
            self.sparse.values, self.sparse.positions, self.sparse.k
        )
        return (
            _rebuild_fused_operator,
            (
                sparse,
                self.L,
                permutation,
                dense_rows,
                self.precision,
            ),
        )

    @property
    def n_x_rows(self) -> int:
        """Input rows the fused GEMM actually consumes (compact width)."""
        return len(self.active_cols)

    @property
    def acc_dtype(self) -> type:
        return (
            np.float32 if self.precision == MmaPrecision.FP16 else np.float64
        )

    def nbytes(self) -> int:
        """Resident bytes of the precompiled operand."""
        return int(
            self.kernel.nbytes
            + self.kernel_compact.nbytes
            + self.sparse.values.nbytes
            + self.sparse.positions.nbytes
            + self.sparse.selection_indices().nbytes
        )

    def record_issues(self, stream: InstructionStream, n_cols: int) -> None:
        """Hardware-issue accounting for ``n_cols`` fused GEMM columns.

        Stacking rows into one operator packs them densely into m16 tiles,
        so the fused operator needs fewer ``mma.sp`` issues than the
        per-row loop (whose ragged ``L``-row operands each round up to a
        full tile) — the instruction-level form of the fusion win.  The
        executor records a sweep's columns once, from the calling thread,
        after its ranges finish.
        """
        shape = MMA_SP_M16N8K16
        issues = (
            -(-self.m_active // shape.m)
            * -(-n_cols // shape.n)
            * -(-self.width // shape.k)
        )
        stream.emit(
            "mma.sp" if self.use_sptc else "mma", shape.name, count=issues
        )

    def _gemm_block(
        self,
        x: np.ndarray,
        out: np.ndarray,
        c0: int,
        c1: int,
        emit: Optional[Callable[[str, float, float], None]],
    ) -> None:
        """One ordered-einsum column block, optionally traced."""
        if emit is None:
            np.einsum(
                "mw,wn->mn",
                self.kernel_compact,
                x[:, c0:c1],
                out=out[:, c0:c1],
            )
            return
        t0 = time.monotonic()
        np.einsum(
            "mw,wn->mn",
            self.kernel_compact,
            x[:, c0:c1],
            out=out[:, c0:c1],
        )
        emit("mac.gemm", t0, time.monotonic() - t0)

    # ------------------------------------------------------------------
    def execute(
        self,
        x: np.ndarray,
        out: np.ndarray,
        emit: Optional[Callable[[str, float, float], None]] = None,
    ) -> np.ndarray:
        """One fused ordered GEMM: ``K_all @ X`` for all active rows.

        ``x`` is the compact input matrix (``n_x_rows``, n) already in
        swapped row order and cast to the MAC dtype; ``out`` is the
        (``m_active``, n) destination (a workspace buffer).  The product
        is evaluated in :data:`COL_BLOCK` column blocks with the strictly
        ordered einsum kernel (see the module docstring), on the calling
        thread: the executor runs one call per sub-block of each output
        range, so threads execute disjoint calls at once.  Results are
        bit-identical for any blocking of the columns with blocks >= 2
        wide; a trailing 1-wide remainder block is always merged into its
        neighbour (:func:`~repro.sptc.macpool.col_blocks`), since n = 1 is
        the one einsum call shape with a different reduction kernel.

        ``emit`` (the executor's tracing stage hook) receives one
        ``mac.gemm`` span per column block, recorded from the thread that
        ran the call.  Issue accounting is the caller's
        (:meth:`record_issues`).
        """
        if self.m_active:
            for c0, c1 in col_blocks(x.shape[1], self.COL_BLOCK):
                self._gemm_block(x, out, c0, c1, emit)
        return out
