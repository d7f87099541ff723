"""Command-line harness: regenerate any paper artifact from the shell.

Usage::

    python -m repro table2
    python -m repro table3
    python -m repro fig10
    python -m repro fig11 --shape Box-2D2R
    python -m repro fig12
    python -m repro sensitivity
    python -m repro precision
    python -m repro verify --shape Star-2D3R --size 48x64
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

import numpy as np

from . import __version__

__all__ = ["main"]


def _cmd_table2(args) -> int:
    from .analysis import format_table2, table2_rows

    print(format_table2(table2_rows(r=args.radius, c=args.tile)))
    return 0


def _cmd_table3(args) -> int:
    from .analysis import format_table3, table3_rows

    print(format_table3(table3_rows(radius=args.radius, grid_shape=(20, 64))))
    return 0


def _cmd_fig10(args) -> int:
    from .analysis import figure10, format_figure10

    print(format_figure10(figure10()))
    return 0


def _cmd_fig11(args) -> int:
    from .analysis import figure11, format_figure11

    print(format_figure11(figure11(args.shape)))
    return 0


def _cmd_fig12(args) -> int:
    from .analysis import figure12, format_figure12

    print(format_figure12(figure12()))
    return 0


def _cmd_sensitivity(args) -> int:
    from .analysis.sensitivity import format_sweep, sweep_bandwidth, sweep_sptc_ratio

    print("HBM bandwidth sweep:")
    print(format_sweep(sweep_bandwidth()))
    print("\nSpTC:TC peak-ratio sweep:")
    print(format_sweep(sweep_sptc_ratio()))
    return 0


def _cmd_precision(args) -> int:
    from .analysis.precision import (
        format_precision,
        iterated_error,
        sweep_single_sweep_error,
    )

    print("single-sweep FP16 error:")
    print(format_precision(sweep_single_sweep_error()))
    errs = iterated_error(steps=args.steps)
    print(f"\niterated heat2d error after {args.steps} steps: {errs[-1]:.2e}")
    return 0


def _parse_size(text: str) -> tuple:
    return tuple(int(t) for t in text.lower().split("x"))


def _cmd_verify(args) -> int:
    from .core import Spider
    from .stencil import make_workload, naive_stencil

    size = _parse_size(args.size) if args.size else None
    wl = make_workload(args.shape, size or ((2048,) if args.shape.startswith("1D") else (48, 64)))
    grid = wl.make_grid(np.random.default_rng(args.seed))
    out = Spider(wl.spec).run(grid)
    ref = naive_stencil(wl.spec, grid)
    err = float(np.max(np.abs(out - ref)))
    print(f"{wl.label}: max |SPIDER - reference| = {err:.3e}")
    if err > 1e-9:
        print("FAILED")
        return 1
    print("equivalent")
    return 0


def build_parser() -> argparse.ArgumentParser:
    """Construct the argument parser for all subcommands."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="SPIDER reproduction: regenerate paper tables/figures",
    )
    parser.add_argument(
        "--version", action="version", version=f"%(prog)s {__version__}"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("table2", help="Table 2 cost comparison")
    p.add_argument("--radius", type=int, default=3)
    p.add_argument("--tile", type=int, default=8)
    p.set_defaults(fn=_cmd_table2)

    p = sub.add_parser("table3", help="Table 3 row-swapping cost")
    p.add_argument("--radius", type=int, default=7)
    p.set_defaults(fn=_cmd_table3)

    sub.add_parser("fig10", help="Figure 10 comparison").set_defaults(fn=_cmd_fig10)

    p = sub.add_parser("fig11", help="Figure 11 size sweep")
    p.add_argument("--shape", default="Box-2D2R")
    p.set_defaults(fn=_cmd_fig11)

    sub.add_parser("fig12", help="Figure 12 ablation").set_defaults(fn=_cmd_fig12)
    sub.add_parser("sensitivity", help="device sensitivity sweeps").set_defaults(
        fn=_cmd_sensitivity
    )

    p = sub.add_parser("precision", help="FP16 error study")
    p.add_argument("--steps", type=int, default=20)
    p.set_defaults(fn=_cmd_precision)

    p = sub.add_parser("verify", help="equivalence check for one shape")
    p.add_argument("--shape", default="Box-2D2R")
    p.add_argument("--size", default=None, help="e.g. 48x64")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=_cmd_verify)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point: dispatch one subcommand; returns the exit code."""
    args = build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
