"""Tests of the benchmark itself, on its fast smoke inputs."""

from __future__ import annotations

import dataclasses
import json
import math
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

from perf import run as bench_run
from perf import serve, solve, sweep
from repro.serve import ServeRequest, SolveHandle

WORKLOADS = ("sweep", "serve", "solve")


def _result_line(capsys, workload: str, trace: int, seed: int = 3) -> dict:
    argv = ["--workload", workload, "--seed", str(seed), "--seconds", "0.3",
            "--trace", str(trace), "--smoke"]
    assert bench_run.main(argv) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert "report" in json.loads(lines[-2])
    return json.loads(lines[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_declared_metric_is_printed_with_its_unit(capsys, workload, trace):
    line = _result_line(capsys, workload, trace)
    spec = bench_run.load_spec()
    declared = spec["per_layer"] if trace else spec["end_to_end"]
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["failed"] == 0 and line["attempted"] >= 1
    assert list(line["metrics"]) == [m["name"] for m in declared]
    for m in declared:
        got = line["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert math.isfinite(got["value"])
    if not trace:
        assert all(v["value"] > 0 for v in line["metrics"].values())


def _grids_equal(a, b) -> bool:
    return a.shape == b.shape and a.data.tobytes() == b.data.tobytes()


def test_same_seed_regenerates_byte_identical_inputs():
    a, b, c = (sweep.inputs(s, smoke=True) for s in (5, 5, 6))
    assert all(_grids_equal(x[1], y[1]) for x, y in zip(a, b))
    assert all(
        np.array_equal(x[0].spec.weights, y[0].spec.weights) for x, y in zip(a, b)
    )
    assert not all(_grids_equal(x[1], y[1]) for x, y in zip(a, c))

    def served(seed):
        return serve.inputs(serve.workloads(seed, smoke=True), seed, smoke=True)

    a, b, c = served(5), served(5), served(6)
    assert [(k, s) for k, _, s in a] == [(k, s) for k, _, s in b]
    assert all(_grids_equal(x[1], y[1]) for x, y in zip(a, b))
    assert not all(_grids_equal(x[1], y[1]) for x, y in zip(a, c))

    def solved(seed):
        stream = solve.solves(seed, smoke=True)
        return [next(stream) for _ in range(3)]

    a, b, c = solved(5), solved(5), solved(6)
    assert all(_grids_equal(x.rhs, y.rhs) for x, y in zip(a, b))
    assert not _grids_equal(a[0].rhs, c[0].rhs)


def _corrupt_call(monkeypatch, cls, nth: int, corrupt) -> None:
    """Make the ``nth`` call of ``cls.result`` return a corrupted value."""
    original = cls.result
    calls = [0]

    def result(self, *args, **kwargs):
        value = original(self, *args, **kwargs)
        calls[0] += 1
        return corrupt(value) if calls[0] == nth else value

    monkeypatch.setattr(cls, "result", result)


def _flip_first(out: np.ndarray) -> np.ndarray:
    bad = out.copy()
    bad.flat[0] += 1.0
    return bad


@pytest.mark.parametrize(
    "workload, cls, nth, corrupt",
    [
        # after the set-up's four sweeps: the second sweep of round one
        ("sweep", ServeRequest, 6, _flip_first),
        # after the reference answers and the set-up's two requests per
        # workload: the sixth served response
        (
            "serve",
            ServeRequest,
            serve.SMOKE_POOL + 2 * len(serve.SPEC_IDS) + 6,
            _flip_first,
        ),
        # after the set-up's solve: the first measured solve
        (
            "solve",
            SolveHandle,
            2,
            lambda r: dataclasses.replace(r, solution=_flip_first(r.solution)),
        ),
    ],
)
def test_a_corrupted_output_counts_as_a_failure(
    capsys, monkeypatch, workload, cls, nth, corrupt
):
    _corrupt_call(monkeypatch, cls, nth, corrupt)
    line = _result_line(capsys, workload, 0)
    assert line["correct"] is False
    assert 1 <= line["failed"] <= line["attempted"]


def _session_pids(sid: int) -> list:
    """Live pids in session ``sid``, from ``/proc``."""
    pids = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as fh:
                fields = fh.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        if int(fields[3]) == sid:
            pids.append(int(entry))
    return pids


@pytest.mark.skipif(not os.path.isdir("/proc"), reason="needs /proc")
@pytest.mark.parametrize("start_method", [None, "forkserver"])
def test_no_process_outlives_a_run(start_method):
    # the process backend over shm starts workers, multiprocessing's
    # resource tracker and, when threads are live, its fork server; in its
    # own session, everything it started is findable by session id the
    # moment it exits
    env = dict(os.environ)
    if start_method:
        env["REPRO_MP_START_METHOD"] = start_method
    proc = subprocess.Popen(
        [sys.executable, "perf/run.py", "--workload", "serve", "--seed", "1",
         "--seconds", "0.3", "--trace", "0", "--smoke"],
        cwd=bench_run.ROOT, env=env, stdout=subprocess.PIPE,
        stderr=subprocess.PIPE, text=True, start_new_session=True,
    )
    out, err = proc.communicate(timeout=120)
    left = _session_pids(proc.pid)
    assert proc.returncode == 0, err
    assert json.loads(out.strip().splitlines()[-1])["correct"] is True
    assert left == []


def test_exits_nonzero_without_a_result_where_the_program_is_missing(tmp_path):
    shutil.copy(bench_run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(bench_run.ROOT / "perf", tmp_path / "perf")
    proc = subprocess.run(
        [sys.executable, "perf/run.py", "--workload", "sweep", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
