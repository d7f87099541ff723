"""Public-API hygiene: exports resolve, everything public is documented."""

import importlib
import inspect
import os
import subprocess
import sys

import pytest

PACKAGES = [
    "repro",
    "repro.stencil",
    "repro.sptc",
    "repro.gpu",
    "repro.core",
    "repro.baselines",
    "repro.analysis",
]

MODULES = [
    "repro.cli",
    "repro.stencil.spec",
    "repro.stencil.grid",
    "repro.stencil.reference",
    "repro.stencil.workloads",
    "repro.stencil.solvers",
    "repro.stencil.distributed",
    "repro.sptc.formats",
    "repro.sptc.metadata",
    "repro.sptc.fragments",
    "repro.sptc.mma",
    "repro.sptc.mma_sp",
    "repro.sptc.warp",
    "repro.sptc.instruction",
    "repro.sptc.spmm_lib",
    "repro.gpu.device",
    "repro.gpu.memory",
    "repro.gpu.occupancy",
    "repro.gpu.timing",
    "repro.gpu.jit",
    "repro.gpu.kernel",
    "repro.gpu.ptx",
    "repro.core.kernel_matrix",
    "repro.core.swapping",
    "repro.core.encoding",
    "repro.core.row_swap",
    "repro.core.tiling",
    "repro.core.packing",
    "repro.core.executor",
    "repro.core.pipeline",
    "repro.core.cost",
    "repro.core.temporal",
    "repro.core.autotune",
    "repro.baselines.base",
    "repro.analysis.costs",
    "repro.analysis.redundancy",
    "repro.analysis.perfmodel",
    "repro.analysis.tables",
    "repro.analysis.figures",
    "repro.analysis.sensitivity",
    "repro.analysis.precision",
]


@pytest.mark.parametrize("name", PACKAGES + MODULES)
def test_module_imports_and_documented(name):
    mod = importlib.import_module(name)
    assert mod.__doc__ and mod.__doc__.strip(), f"{name} lacks a module docstring"


@pytest.mark.parametrize("name", PACKAGES)
def test_all_exports_resolve(name):
    mod = importlib.import_module(name)
    exported = getattr(mod, "__all__", [])
    assert exported, f"{name} must define __all__"
    for sym in exported:
        assert hasattr(mod, sym), f"{name}.__all__ lists missing {sym!r}"


@pytest.mark.parametrize("name", MODULES)
def test_public_callables_documented(name):
    """Every public function/class defined in a module carries a docstring."""
    mod = importlib.import_module(name)
    missing = []
    for attr_name, obj in vars(mod).items():
        if attr_name.startswith("_"):
            continue
        if not (inspect.isfunction(obj) or inspect.isclass(obj)):
            continue
        if getattr(obj, "__module__", None) != name:
            continue  # re-exports are documented at their origin
        if not (obj.__doc__ and obj.__doc__.strip()):
            missing.append(attr_name)
    assert not missing, f"{name}: undocumented public items {missing}"


def test_version_string():
    import repro

    parts = repro.__version__.split(".")
    assert len(parts) == 3 and all(p.isdigit() for p in parts)


def test_importing_the_packages_loads_no_scipy():
    """scipy.signal and scipy.ndimage cost ~80 MB and ~1 s at import; the
    two functions that use them import them on first call instead."""
    code = (
        "import sys, repro, repro.serve, repro.stencil, repro.core\n"
        "sys.exit(any(m.split('.')[0] == 'scipy' for m in sys.modules))"
    )
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.abspath(src) + os.pathsep + env.get(
        "PYTHONPATH", ""
    )
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        timeout=120,
        env=env,
    )
    assert proc.returncode == 0, f"scipy loaded at import\n{proc.stderr}"
