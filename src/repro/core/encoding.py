"""Kernel parameter encoding (paper §3.1.2, Figure 5 stages 1–3).

End-to-end ahead-of-time pipeline for one stencil-kernel row:

1. build the padded diagonal kernel matrix (stage ➊),
2. strided-swap its columns into 2:4 form (stage ➋),
3. compress into the hardware format — value matrix + 2-bit metadata
   (stage ➌).

Compression here is *structural*: the extraction positions come from the
kernel matrix's structure (which cells hold coefficients), not from the
numeric values.  A star-stencil row contains zero coefficients inside its
band; treating them as data keeps the extraction rule and metadata uniform
for a given radius, which is what makes the whole transformation a
compile-time constant ("predefined extraction rule and metadata", §3.1.2).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from ..sptc.formats import GROUP, KEEP, Sparse24Matrix, is_24_sparse
from ..sptc.fused import FusedStencilOperator
from ..sptc.metadata import pack_metadata_words
from .kernel_matrix import (
    build_kernel_matrix,
    choose_L,
    padded_width,
    structural_mask,
)
from .swapping import apply_column_swap, strided_permutation

__all__ = [
    "EncodedKernelRow",
    "encode_kernel_row",
    "structural_compress",
    "stack_encoded_rows",
    "build_fused_operator",
]


def structural_compress(
    matrix: np.ndarray, mask: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Compress by structural mask instead of value non-zeroness.

    Every 4-group must contain at most two masked cells.  Groups with fewer
    masked cells use the same placeholder convention as
    :func:`repro.sptc.formats.compress_24`.
    """
    matrix = np.asarray(matrix)
    mask = np.asarray(mask, dtype=bool)
    if matrix.shape != mask.shape:
        raise ValueError("matrix and mask shapes differ")
    m, k = matrix.shape
    if k % GROUP:
        raise ValueError(f"width must be a multiple of {GROUP}")
    ngroups = k // GROUP
    values = np.zeros((m, ngroups * KEEP), dtype=matrix.dtype)
    positions = np.zeros((m, ngroups * KEEP), dtype=np.uint8)
    for i in range(m):
        for g in range(ngroups):
            cells = np.nonzero(mask[i, g * GROUP : (g + 1) * GROUP])[0]
            if len(cells) > KEEP:
                raise ValueError(
                    f"row {i} group {g} has {len(cells)} structural cells "
                    f"(mask is not 2:4 compliant)"
                )
            if len(cells) == KEEP:
                p0, p1 = int(cells[0]), int(cells[1])
                v0 = matrix[i, g * GROUP + p0]
                v1 = matrix[i, g * GROUP + p1]
            elif len(cells) == 1:
                p = int(cells[0])
                if p < GROUP - 1:
                    p0, p1 = p, p + 1
                    v0, v1 = matrix[i, g * GROUP + p], 0.0
                else:
                    p0, p1 = GROUP - 2, GROUP - 1
                    v0, v1 = 0.0, matrix[i, g * GROUP + p]
            else:
                p0, p1 = 0, 1
                v0 = v1 = 0.0
            values[i, 2 * g], values[i, 2 * g + 1] = v0, v1
            positions[i, 2 * g], positions[i, 2 * g + 1] = p0, p1
    return values, positions


@dataclass
class EncodedKernelRow:
    """AOT-encoded kernel matrix for one stencil-kernel row.

    Attributes
    ----------
    sparse:
        The compressed 2:4 representation consumed by ``mma.sp``.
    permutation:
        Column permutation applied to the kernel matrix; the same array is
        the row permutation the input matrix needs at runtime.
    L, radius, width:
        Geometry: outputs per chunk, stencil radius, padded matrix width.
    metadata_words:
        Hardware metadata packed into 32-bit words (Figure 5 stage ➌ /
        Figure 9 packing input).
    swapped_matrix:
        The dense swapped matrix (kept for diagnostics/ablation; the dense
        *unswapped* matrix is recoverable via the permutation).
    """

    sparse: Sparse24Matrix
    permutation: np.ndarray
    L: int
    radius: int
    width: int
    metadata_words: np.ndarray
    swapped_matrix: np.ndarray

    @property
    def dense_swapped(self) -> np.ndarray:
        return self.swapped_matrix

    @property
    def dense_unswapped(self) -> np.ndarray:
        inv = np.empty_like(self.permutation)
        inv[self.permutation] = np.arange(len(self.permutation))
        return self.swapped_matrix[:, inv]

    def parameter_elements(self) -> int:
        """Stored parameter elements (the SpTC win: half the dense width)."""
        return self.sparse.storage_elements()


def encode_kernel_row(
    row: np.ndarray,
    L: Optional[int] = None,
    align: int = 16,
) -> EncodedKernelRow:
    """Run the full three-stage AOT encoding for one kernel row.

    The returned object is everything the runtime needs: compressed values,
    metadata words and the (compile-time constant) input row permutation.
    """
    row = np.asarray(row, dtype=np.float64).reshape(-1)
    radius = (row.size - 1) // 2
    L = choose_L(radius) if L is None else L
    dense = build_kernel_matrix(row, L, align)
    width = dense.shape[1]

    mask = structural_mask(radius, L, align)
    perm = strided_permutation(L, width)
    swapped = dense[:, perm]
    swapped_mask = mask[:, perm]

    if not is_24_sparse(np.where(swapped_mask, 1.0, 0.0)):
        raise AssertionError(
            "strided swapping failed to produce a 2:4 structural pattern "
            f"for radius {radius} (L={L}, width={width}) — this contradicts "
            "the paper's §3.1.2 guarantee and indicates a geometry bug"
        )

    values, positions = structural_compress(swapped, swapped_mask)
    sparse = Sparse24Matrix(values, positions, width)
    words, _ = pack_metadata_words(positions)
    return EncodedKernelRow(
        sparse=sparse,
        permutation=perm,
        L=L,
        radius=radius,
        width=width,
        metadata_words=words,
        swapped_matrix=swapped,
    )


def stack_encoded_rows(encoded: List[EncodedKernelRow]) -> Sparse24Matrix:
    """Vertically stack every encoded row into one block operator ``K_all``.

    All rows of one stencil share ``(L, width)`` and the strided-swap
    permutation, so their compressed matrices concatenate along ``m`` into
    a single 2:4 operand with ``m = n_rows * L`` — the compressed form of
    the fused single-GEMM operator.
    """
    if not encoded:
        raise ValueError("need at least one encoded kernel row")
    first = encoded[0]
    for e in encoded:
        if e.L != first.L or e.width != first.width:
            raise ValueError("encoded rows disagree on (L, width)")
        if not np.array_equal(e.permutation, first.permutation):
            raise ValueError("encoded rows disagree on the swap permutation")
    return Sparse24Matrix(
        np.vstack([e.sparse.values for e in encoded]),
        np.vstack([e.sparse.positions for e in encoded]),
        first.width,
    )


def build_fused_operator(
    encoded: List[EncodedKernelRow],
    precision: str,
    use_sptc: bool = True,
) -> FusedStencilOperator:
    """AOT stage ➍: compile the fused single-GEMM operator for a stencil.

    Stacks the per-row compressed matrices through
    :func:`stack_encoded_rows` (which validates that every row shares
    geometry and swap permutation), applies the selection stage once
    through the precomputed index tensor and casts the operand to its MAC
    dtype — everything the runtime GEMM needs, owned by the compile plan.
    """
    stacked = stack_encoded_rows(encoded)
    return FusedStencilOperator(
        stacked,
        encoded[0].L,
        encoded[0].permutation if use_sptc else None,
        dense_rows=(
            None if use_sptc else [e.dense_unswapped for e in encoded]
        ),
        precision=precision,
    )
