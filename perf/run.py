"""Run one benchmark workload and print its metrics.

Usage, from the repository root::

    python3 perf/run.py --workload sweep --seed 1 --seconds 20 --trace 0

The program under test is imported from ``src/``; nothing is installed.
The last stdout line is the result object (see :mod:`perf`); the line
before it is the run report.  Exits non-zero, without a result line, if
the program's sources are missing or a workload fails to run.

Every process the run starts has ended when it exits, on every path out:
worker processes, and the helpers ``multiprocessing`` starts on demand
(the shared-memory resource tracker, the fork server), which would
otherwise outlive this process until they noticed it had gone.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("sweep", "serve", "solve")


def stop_children(grace_s: float = 5.0) -> None:
    """Stop every process this one started and wait until each has ended:
    live ``multiprocessing`` children (terminated, killed after
    ``grace_s``), then the helpers it starts on demand."""
    import multiprocessing
    from multiprocessing import forkserver, resource_tracker, util

    for proc in multiprocessing.active_children():
        proc.terminate()
        proc.join(grace_s)
        if proc.is_alive():
            proc.kill()
            proc.join()
    # the fork server first: its socket lives in the temporary directory
    # that the exit work below removes
    forkserver._forkserver._stop()
    # multiprocessing's own exit work, done now rather than at interpreter
    # exit: its finalizers release the semaphores and segments the resource
    # tracker holds, so the tracker stops with nothing left to clean up
    util._exit_function()
    resource_tracker._resource_tracker._stop()


def exit_on_sigterm(main_pid: int) -> None:
    """Turn SIGTERM into ``SystemExit`` in this process, so the clean-up in
    ``finally`` runs; forked children keep the default action."""

    def handler(signum, frame):
        if os.getpid() != main_pid:
            signal.signal(signum, signal.SIG_DFL)
            os.kill(os.getpid(), signum)
            return
        sys.exit(128 + signum)

    signal.signal(signal.SIGTERM, handler)


def load_spec(root: Path = ROOT) -> dict:
    with open(root / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def result_line(result, spec: dict, trace: bool) -> dict:
    """The contract object: every metric the spec names, with its unit."""
    declared = spec["per_layer"] if trace else spec["end_to_end"]
    names = [m["name"] for m in declared]
    missing = sorted(set(names) - set(result.metrics))
    extra = sorted(set(result.metrics) - set(names))
    if missing or extra:
        raise RuntimeError(f"metric set mismatch: missing {missing}, extra {extra}")
    return {
        "correct": result.failed == 0,
        "attempted": int(result.attempted),
        "failed": int(result.failed),
        "metrics": {
            m["name"]: {"value": float(result.metrics[m["name"]]), "unit": m["unit"]}
            for m in declared
        },
    }


def run_workload(
    name: str, seed: int, seconds: float, trace: bool, smoke: bool = False
):
    from perf import common, serve, solve, sweep

    module = {"sweep": sweep, "serve": serve, "solve": solve}[name]
    steal0, total0 = common.cpu_jiffies()
    result = module.run(seed=seed, seconds=seconds, trace=trace, smoke=smoke)
    steal1, total1 = common.cpu_jiffies()
    host = common.host_facts(seed)
    # CPU time the hypervisor withheld during the run, which wall-clock
    # metrics move with
    host["steal_pct"] = 100.0 * (steal1 - steal0) / max(1, total1 - total0)
    result.report = {
        "workload": name,
        "trace": trace,
        "seconds": seconds,
        "host": host,
        **result.report,
    }
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--smoke", action="store_true", help="tiny inputs, for the benchmark's tests"
    )
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"program sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = load_spec()
    result = run_workload(
        args.workload, args.seed, args.seconds, bool(args.trace), args.smoke
    )
    line = result_line(result, spec, bool(args.trace))
    print(json.dumps({"report": result.report}, default=float))
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    for path in (ROOT, ROOT / "src"):
        if str(path) not in sys.path:
            sys.path.insert(0, str(path))
    # this directory holds modules named like the workloads; keep it off
    # the import path so only the package form ``perf.*`` resolves
    here = str(Path(__file__).resolve().parent)
    sys.path[:] = [p for p in sys.path if os.path.abspath(p or ".") != here]
    exit_on_sigterm(os.getpid())
    try:
        code = main()
    finally:
        stop_children()
    sys.exit(code)
