"""Golden reference stencil executors.

Two implementations with identical semantics:

* :func:`naive_stencil` — explicit loop over footprint offsets, shift-and-
  add on the padded array.  Slow but obviously correct; this is the oracle
  every other executor in the repository is tested against.
* :func:`vectorized_stencil` — ``scipy.ndimage.correlate`` based, used when
  a fast trusted result is needed (e.g. multi-step examples).

Plus :func:`run_iterations`, the time-stepping driver shared by examples.
"""

from __future__ import annotations

from typing import Callable, Optional, Tuple

import numpy as np

from .grid import BoundaryCondition, Grid
from .spec import StencilSpec

__all__ = [
    "naive_stencil",
    "vectorized_stencil",
    "run_iterations",
    "l2_error",
    "max_abs_error",
]


def naive_stencil(spec: StencilSpec, grid: Grid) -> np.ndarray:
    """One stencil sweep via explicit shifted adds (the oracle).

    ``out[p] = sum_k w[k] * in[p + k - r]`` with halo values supplied by the
    grid's boundary condition.
    """
    if spec.dims != grid.dims:
        raise ValueError(
            f"spec is {spec.dims}D but grid is {grid.dims}D"
        )
    r = spec.radius
    padded = grid.padded(r)
    out = np.zeros_like(grid.data)
    w = spec.weights
    shape = grid.shape
    for offset in np.ndindex(*w.shape):
        coeff = w[offset]
        if coeff == 0.0:
            continue
        slices = tuple(
            slice(o, o + s) for o, s in zip(offset, shape)
        )
        out += coeff * padded[slices]
    return out


_SCIPY_MODE = {
    BoundaryCondition.ZERO: "constant",
    BoundaryCondition.PERIODIC: "wrap",
    BoundaryCondition.REFLECT: "mirror",
    BoundaryCondition.NEAREST: "nearest",
}


def vectorized_stencil(spec: StencilSpec, grid: Grid) -> np.ndarray:
    """One stencil sweep via ``scipy.ndimage.correlate``.

    Matches :func:`naive_stencil` to floating-point round-off.
    """
    # imported here: scipy.ndimage costs ~40 MB and ~0.5 s at import,
    # and nothing on the serving path calls this function
    from scipy import ndimage

    if spec.dims != grid.dims:
        raise ValueError(f"spec is {spec.dims}D but grid is {grid.dims}D")
    mode = _SCIPY_MODE[grid.bc]
    return ndimage.correlate(
        grid.data, np.asarray(spec.weights), mode=mode, cval=0.0
    )


def run_iterations(
    spec: StencilSpec,
    grid: Grid,
    steps: int,
    executor: Optional[Callable[[StencilSpec, Grid], np.ndarray]] = None,
    *,
    record_every: int = 0,
) -> Tuple[Grid, list]:
    """Apply ``steps`` stencil sweeps, threading the grid through time.

    Parameters
    ----------
    executor:
        Any callable with the ``(spec, grid) -> ndarray`` signature;
        defaults to :func:`vectorized_stencil`.
    record_every:
        If > 0, snapshot the grid every that many steps (for examples /
        convergence plots).

    Returns
    -------
    (final grid, snapshots)
    """
    if steps < 0:
        raise ValueError("steps must be >= 0")
    executor = executor or vectorized_stencil
    current = grid
    snapshots = []
    for t in range(steps):
        current = current.like(executor(spec, current))
        if record_every and (t + 1) % record_every == 0:
            snapshots.append(current.data.copy())
    return current, snapshots


def l2_error(a: np.ndarray, b: np.ndarray) -> float:
    """Relative L2 error ``||a-b|| / max(||b||, eps)``."""
    denom = max(float(np.linalg.norm(b)), np.finfo(np.float64).eps)
    return float(np.linalg.norm(a - b) / denom)


def max_abs_error(a: np.ndarray, b: np.ndarray) -> float:
    """Largest absolute elementwise difference."""
    return float(np.max(np.abs(a - b))) if a.size else 0.0
