"""The public SPIDER API.

:class:`Spider` wraps the whole system — AOT strided-swapping compilation,
tiling, packing, and the SpTC executor — behind the two calls a user needs:

>>> from repro import Spider
>>> from repro.stencil import named_stencil, Grid
>>> sp = Spider(named_stencil("heat2d"))
>>> out = sp.run(Grid.random((64, 64)))

Variants (for §4.4's ablation):

* ``SpiderVariant.TC`` — transformation into 50%-sparse GEMM executed on
  *dense* tensor cores ("SPIDER w. TC");
* ``SpiderVariant.SPTC`` — plus strided swapping and ``mma.sp`` ("SPIDER
  w. SpTC");
* ``SpiderVariant.SPTC_CO`` — plus the §3.3 computing optimizations
  ("SPIDER w. SpTC+CO").  Functionally identical to ``SPTC``; the variants
  differ in modeled cost/instructions, which is what the ablation compares.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..gpu.device import A100_80GB_PCIE, DeviceSpec, Pipe
from ..gpu.timing import KernelCost, TimingBreakdown, estimate_time
from ..sptc.mma import MmaPrecision
from ..stencil.grid import Grid
from ..stencil.spec import StencilSpec
from .cost import spider_cost
from .encoding import EncodedKernelRow
from .executor import FaithfulRunReport, SpiderExecutor
from .kernel_matrix import kernel_matrix_sparsity
from .packing import kernel_load_audit, plan_metadata_packing
from .row_swap import RowSwapStrategy, strategy_for
from .tiling import TilePlan, make_tile_plan

__all__ = [
    "Spider",
    "SpiderVariant",
    "CompileReport",
    "CompilePlan",
    "PlanRecipe",
    "build_compile_plan",
    "build_compile_report",
]


class SpiderVariant(enum.Enum):
    """Ablation stages of §4.4 (see module docstring)."""

    TC = "tc"  # dense tensor cores on the 50%-sparse kernel matrix
    SPTC = "sptc"  # + strided swapping, sparse tensor cores
    SPTC_CO = "sptc+co"  # + tiling/packing computing optimizations


@dataclass
class CompileReport:
    """What ahead-of-time compilation produced (all offline, O(1) in the
    problem size — §4.2's preparation-cost discussion)."""

    L: int
    width: int
    sparsity: float
    num_kernel_rows: int
    parameter_elements: int
    metadata_words: int
    row_swap_strategy: RowSwapStrategy
    packed_kernel_transactions: int
    unpacked_kernel_transactions: int
    metadata_registers_naive: int
    metadata_registers_packed: int


def build_compile_report(
    spec: StencilSpec, encoded: List[EncodedKernelRow]
) -> CompileReport:
    """Summarize AOT transformation artifacts for one compiled stencil."""
    enc = encoded[0]
    width = enc.width
    num_k_tiles = width // 16
    unpacked, packed = kernel_load_audit(num_k_tiles)
    meta_plan = plan_metadata_packing(num_k_tiles)
    return CompileReport(
        L=enc.L,
        width=width,
        sparsity=kernel_matrix_sparsity(spec.radius),
        num_kernel_rows=len(encoded),
        parameter_elements=sum(e.parameter_elements() for e in encoded),
        metadata_words=sum(len(e.metadata_words) for e in encoded),
        row_swap_strategy=strategy_for(spec.radius),
        packed_kernel_transactions=packed.transactions,
        unpacked_kernel_transactions=unpacked.transactions,
        metadata_registers_naive=meta_plan.registers_per_thread_naive,
        metadata_registers_packed=meta_plan.registers_per_thread_packed,
    )


@dataclass(frozen=True)
class PlanRecipe:
    """The pure-data recipe a compile plan is reconstructible from.

    AOT compilation is deterministic: the same ``(spec, precision,
    variant, device)`` — plus an optional ``grid_shape`` for the bound
    tile plan — always produces an identical :class:`SpiderExecutor` and
    :class:`~repro.sptc.fused.FusedStencilOperator` (identical down to
    the operand bytes; the recipe round-trip test asserts bit-identical
    outputs).  A recipe is therefore the unit that crosses process
    boundaries: plans pickle as their recipe and recompile on the other
    side, which is what lets ``WorkerPool(backend="process")`` shards own
    private plan caches without shipping numpy arenas around.

    ``to_dict()`` is JSON-compatible (strings, ints, floats, lists), so
    recipes can also be logged, diffed or sent over non-pickle transports.
    A recipe always describes a single-sweep plan; multi-sweep serving
    chains sweeps through it.  It carries no thread count: threads and
    scratch belong to whoever runs the plan (a
    :class:`~repro.core.executor.SweepRunner`), never to the plan.
    """

    spec: StencilSpec
    precision: str
    variant: SpiderVariant
    device: DeviceSpec
    grid_shape: Optional[Tuple[int, ...]] = None

    def to_dict(self) -> dict:
        return {
            "spec": self.spec.to_dict(),
            "precision": self.precision,
            "variant": self.variant.value,
            "device": self.device.to_dict(),
            "grid_shape": (
                None if self.grid_shape is None else list(self.grid_shape)
            ),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "PlanRecipe":
        """Inverse of :meth:`to_dict`."""
        shape = data.get("grid_shape")
        return cls(
            spec=StencilSpec.from_dict(data["spec"]),
            precision=MmaPrecision.validate(data["precision"]),
            variant=SpiderVariant(data["variant"]),
            device=DeviceSpec.from_dict(data["device"]),
            grid_shape=None if shape is None else tuple(int(s) for s in shape),
        )

    def build(self) -> "CompilePlan":
        """Deterministically recompile the plan this recipe describes."""
        return build_compile_plan(
            self.spec,
            precision=self.precision,
            variant=self.variant,
            device=self.device,
            grid_shape=self.grid_shape,
        )


def _rebuild_plan_from_recipe(recipe_dict: dict) -> "CompilePlan":
    """Unpickle hook for :class:`CompilePlan` (module-level for pickle):
    recompiles the whole plan from its pure-data recipe."""
    return PlanRecipe.from_dict(recipe_dict).build()


@dataclass
class CompilePlan:
    """Everything AOT compilation produces for one stencil configuration.

    A plan is the unit the serving layer caches and shares: the compiled
    :class:`SpiderExecutor` (encoded kernel rows, permutation, metadata,
    and the fused single-GEMM block operator ``K_all``), the
    :class:`CompileReport`, and — when built for a concrete grid shape —
    the :class:`TilePlan`.  Compilation is O(1) in the problem size (§4.2),
    so one plan amortizes across arbitrarily many requests.

    A plan is immutable compiled data: it holds no workspace, thread pool
    or lock, so threads share it freely.  Sweeps write into the scratch
    of the caller's :class:`~repro.core.executor.SweepRunner`.
    :meth:`nbytes` (the operand) is what the serving cache's byte
    accounting reads per plan.
    """

    spec: StencilSpec
    precision: str
    variant: SpiderVariant
    device: DeviceSpec
    executor: SpiderExecutor
    report: Optional[CompileReport] = None
    tile_plan: Optional[TilePlan] = None

    def compile_report(self) -> CompileReport:
        """The plan's :class:`CompileReport`, built lazily (the audit is
        several times the cost of compilation itself) and memoized."""
        if self.report is None:
            self.report = build_compile_report(self.spec, self.executor._encoded)
        return self.report

    @property
    def fused_operator(self):
        """The precompiled fused block operator (all kernel rows stacked)."""
        return self.executor.fused_operator

    def nbytes(self) -> int:
        """Resident bytes of the plan's precompiled fused operand."""
        return self.executor.fused_operator.nbytes()

    # ------------------------------------------------------------------
    def recipe(self) -> PlanRecipe:
        """The pure-data :class:`PlanRecipe` this plan recompiles from."""
        return PlanRecipe(
            spec=self.spec,
            precision=self.precision,
            variant=self.variant,
            device=self.device,
            grid_shape=(
                None if self.tile_plan is None else self.tile_plan.grid_shape
            ),
        )

    def __reduce__(self):
        """Pickle as recipe-plus-recompile, not as arrays.

        A plan's compiled artifacts (encoded rows, the fused operand) are
        deterministic functions of its recipe, so shipping the recipe and
        recompiling on load is both far smaller and guaranteed identical
        — the recipe round-trip test asserts the rehydrated executor's
        fused output is bit-identical.
        """
        return (_rebuild_plan_from_recipe, (self.recipe().to_dict(),))


def build_compile_plan(
    spec: StencilSpec,
    precision: str = MmaPrecision.EXACT,
    variant: SpiderVariant = SpiderVariant.SPTC_CO,
    device: DeviceSpec = A100_80GB_PCIE,
    grid_shape: Optional[Tuple[int, ...]] = None,
) -> CompilePlan:
    """Run the whole AOT pipeline once and bundle the artifacts.

    This is the factory both :class:`Spider` and the serving layer's plan
    cache go through, so a cached plan is byte-for-byte the same object a
    fresh ``Spider(spec)`` would have built.  ``grid_shape`` additionally
    binds a tile plan (1D/2D grids only; 3D executors tile per-request).
    """
    precision = MmaPrecision.validate(precision)
    executor = SpiderExecutor(
        spec,
        precision,
        use_sptc=variant is not SpiderVariant.TC,
    )
    tile_plan: Optional[TilePlan] = None
    if grid_shape is not None and len(grid_shape) <= 2:
        tile_plan = make_tile_plan(spec.radius, tuple(grid_shape), device)
    return CompilePlan(
        spec=spec,
        precision=precision,
        variant=variant,
        device=device,
        executor=executor,
        tile_plan=tile_plan,
    )


class Spider:
    """SPIDER stencil accelerator (paper's primary contribution).

    Parameters
    ----------
    spec:
        Stencil to compile.
    precision:
        ``"exact"`` or ``"fp16"`` (see :class:`repro.sptc.mma.MmaPrecision`).
    variant:
        Ablation stage; default is the full system.
    device:
        Machine model used for cost estimation (defaults to the paper's
        A100-80GB PCIe).
    plan:
        Optional pre-built :class:`CompilePlan` (e.g. from the serving
        layer's plan cache); when given, AOT compilation is skipped and the
        plan's executor/report are reused.  Must match ``spec``,
        ``precision`` and ``variant``.
    """

    def __init__(
        self,
        spec: StencilSpec,
        precision: str = MmaPrecision.EXACT,
        variant: SpiderVariant = SpiderVariant.SPTC_CO,
        device: DeviceSpec = A100_80GB_PCIE,
        plan: Optional[CompilePlan] = None,
    ) -> None:
        self.spec = spec
        self.precision = MmaPrecision.validate(precision)
        self.variant = variant
        self.device = device
        if plan is None:
            plan = build_compile_plan(spec, self.precision, variant, device)
        else:
            if plan.spec is not spec and not (
                plan.spec.shape is spec.shape
                and plan.spec.dims == spec.dims
                and plan.spec.radius == spec.radius
                and np.array_equal(plan.spec.weights, spec.weights)
            ):
                raise ValueError("plan was compiled for a different spec")
            if plan.precision != self.precision:
                raise ValueError(
                    f"plan precision {plan.precision!r} != {self.precision!r}"
                )
            if plan.variant is not variant:
                raise ValueError(
                    f"plan variant {plan.variant} != {variant}"
                )
        self._plan = plan
        self._executor = plan.executor
        self._report: Optional[CompileReport] = plan.report

    @classmethod
    def from_plan(cls, plan: CompilePlan) -> "Spider":
        """Wrap a cached :class:`CompilePlan` without recompiling."""
        return cls(
            plan.spec, plan.precision, plan.variant, plan.device, plan=plan
        )

    @property
    def plan(self) -> CompilePlan:
        return self._plan

    # ------------------------------------------------------------------
    @property
    def executor(self) -> SpiderExecutor:
        return self._executor

    @property
    def encoded_rows(self) -> List[EncodedKernelRow]:
        return self._executor._encoded

    def compile_report(self) -> CompileReport:
        """Summarize the AOT transformation artifacts."""
        if self._report is None:
            self._report = self._plan.compile_report()
        return self._report

    # ------------------------------------------------------------------
    def run(self, grid: Grid) -> np.ndarray:
        """One stencil sweep (functional, emulated SpTC datapath), on the
        process-wide :func:`~repro.core.executor.default_runner`."""
        return self._executor.run(grid)

    def run_faithful(self, grid: Grid, **kwargs) -> FaithfulRunReport:
        """Warp-level emulated sweep (small grids; see executor docs)."""
        return self._executor.run_faithful(grid, **kwargs)

    # ------------------------------------------------------------------
    def tile_plan(self, grid_shape: Tuple[int, ...]) -> TilePlan:
        return make_tile_plan(self.spec.radius, grid_shape, self.device)

    def estimated_time(self, grid_shape: Tuple[int, ...]) -> TimingBreakdown:
        """Modeled single-sweep execution time on the device.

        Delegates to the calibrated model of
        :mod:`repro.analysis.perfmodel` (the same one the Figure-10/11/12
        benches use), re-expressed as a :class:`TimingBreakdown`.
        """
        from ..analysis.perfmodel import estimate_spider_variant

        est = estimate_spider_variant(
            self.variant, self.spec, grid_shape, device=self.device
        )
        points = float(np.prod(grid_shape))
        return TimingBreakdown(
            compute_s=est.compute_s_per_point * points,
            memory_s=max(est.smem_s_per_point, est.dram_s_per_point) * points,
            launch_s=self.device.launch_overhead_s,
            saturation=est.saturation,
        )

    def estimated_gstencils(self, grid_shape: Tuple[int, ...]) -> float:
        """Modeled throughput in GStencils/s for one sweep (calibrated
        performance model, §4 reproduction)."""
        from ..analysis.perfmodel import estimate_spider_variant

        return estimate_spider_variant(
            self.variant, self.spec, grid_shape, device=self.device
        ).gstencils
