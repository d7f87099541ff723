"""FlashFFTStencil baseline (Han et al., PPoPP'25).

Bridges FFTs to stencils: a stencil sweep is a (cross-)correlation, so it
can run as pointwise products in the frequency domain, turning a
memory-bound kernel into a compute-dense one on tensor cores.  The paper
notes its ``O(L² log L)`` transform overhead versus SPIDER's ``O(1)``
preparation (§4.2).

Functional implementation: real FFT convolution with zero boundary.  The
kernel spectrum is cached per (kernel, shape) — the analogue of
FlashFFTStencil amortizing the kernel transform across iterations.
"""

from __future__ import annotations

from typing import Dict, Tuple

import numpy as np

from ..gpu.device import Pipe
from ..stencil.grid import Grid
from ..stencil.spec import StencilSpec
from .base import MethodCost, StencilMethod, register_method
from ..analysis import costs as _costs


@register_method
class FlashFFTStencilMethod(StencilMethod):
    """FFT-domain stencil on dense tensor cores (FP16 in the paper)."""

    name = "FlashFFTStencil"
    pipe = Pipe.TC_FP16
    elem_bytes = 2
    compute_efficiency = 0.65
    memory_efficiency = 0.85

    def __init__(self) -> None:
        self._kernel_cache: Dict[Tuple[bytes, Tuple[int, ...]], np.ndarray] = {}

    def _fft_shape(self, spec: StencilSpec, grid: Grid) -> Tuple[int, ...]:
        # linear convolution needs padded + kernel - 1 points per axis
        return tuple(
            s + 2 * spec.radius + spec.side - 1 for s in grid.shape
        )

    def _kernel_spectrum(
        self, spec: StencilSpec, fshape: Tuple[int, ...]
    ) -> np.ndarray:
        key = (spec.weights.tobytes(), fshape)
        spectrum = self._kernel_cache.get(key)
        if spectrum is None:
            # correlation == convolution with the axis-reversed kernel
            rev = spec.weights[(slice(None, None, -1),) * spec.dims]
            spectrum = np.fft.rfftn(
                rev, s=fshape, axes=tuple(range(-len(fshape), 0))
            )
            self._kernel_cache[key] = spectrum
        return spectrum

    def run(self, spec: StencilSpec, grid: Grid) -> np.ndarray:
        r = spec.radius
        padded = grid.padded(r)
        fshape = self._fft_shape(spec, grid)
        spec_k = self._kernel_spectrum(spec, fshape)
        axes = tuple(range(-len(fshape), 0))
        conv = np.fft.irfftn(
            np.fft.rfftn(padded, s=fshape, axes=axes) * spec_k,
            s=fshape,
            axes=axes,
        )
        # the 'valid' region of the linear convolution starts at 2r per axis
        slices = tuple(slice(2 * r, 2 * r + s) for s in grid.shape)
        return conv[slices]

    def cost(
        self, spec: StencilSpec, grid_shape: Tuple[int, ...], c: int = 8
    ) -> MethodCost:
        return _costs.cost_for_spec("FlashFFTStencil", spec, grid_shape, c)

    def supports(self, spec: StencilSpec) -> bool:
        return spec.dims in (1, 2)
