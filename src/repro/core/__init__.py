"""SPIDER core: the paper's contribution (§3)."""

from .cost import SpiderCost, spider_cost
from .encoding import (
    EncodedKernelRow,
    build_fused_operator,
    encode_kernel_row,
    stack_encoded_rows,
    structural_compress,
)
from .executor import FaithfulRunReport, SpiderExecutor, SweepRunner
from .kernel_matrix import (
    K_ALIGN,
    build_kernel_matrix,
    choose_L,
    kernel_matrix_sparsity,
    logical_width,
    padded_width,
    structural_mask,
)
from .packing import (
    PackedKernelMatrix,
    kernel_load_audit,
    pack_kernel_tiles,
    plan_metadata_packing,
    unpack_kernel_tiles,
)
from .pipeline import (
    CompilePlan,
    CompileReport,
    PlanRecipe,
    Spider,
    SpiderVariant,
    build_compile_plan,
    build_compile_report,
)
from .row_swap import (
    RowSwapStrategy,
    baseline_offset_expr,
    baseline_row_offset_fn,
    offset_table,
    strategy_for,
    swapped_offset_expr,
    swapped_row_offset_fn,
)
from .swapping import (
    apply_column_swap,
    apply_row_swap,
    strided_permutation,
    swap_displacement,
)
from .autotune import TuneResult, autotune_tile_plan, candidate_plans
from .temporal import TemporalSpider, fuse_kernel
from .tiling import TilePlan, make_tile_plan

__all__ = [
    "SpiderCost",
    "spider_cost",
    "EncodedKernelRow",
    "build_fused_operator",
    "stack_encoded_rows",
    "encode_kernel_row",
    "structural_compress",
    "FaithfulRunReport",
    "SpiderExecutor",
    "SweepRunner",
    "K_ALIGN",
    "build_kernel_matrix",
    "choose_L",
    "kernel_matrix_sparsity",
    "logical_width",
    "padded_width",
    "structural_mask",
    "PackedKernelMatrix",
    "kernel_load_audit",
    "pack_kernel_tiles",
    "plan_metadata_packing",
    "unpack_kernel_tiles",
    "CompilePlan",
    "PlanRecipe",
    "CompileReport",
    "Spider",
    "SpiderVariant",
    "build_compile_plan",
    "build_compile_report",
    "RowSwapStrategy",
    "baseline_offset_expr",
    "baseline_row_offset_fn",
    "offset_table",
    "strategy_for",
    "swapped_offset_expr",
    "swapped_row_offset_fn",
    "apply_column_swap",
    "apply_row_swap",
    "strided_permutation",
    "swap_displacement",
    "TuneResult",
    "autotune_tile_plan",
    "candidate_plans",
    "TemporalSpider",
    "fuse_kernel",
    "TilePlan",
    "make_tile_plan",
]
