"""CLI additions: --version and the serve-bench subcommand."""

import json
import shlex
from pathlib import Path

import pytest

import repro
from repro.cli import build_parser, main

README = Path(__file__).resolve().parents[1] / "README.md"


def test_version_flag_prints_package_version(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    assert repro.__version__ in out


def test_version_flag_registered_on_parser():
    parser = build_parser()
    actions = {
        a.option_strings[0] for a in parser._actions if a.option_strings
    }
    assert "--version" in actions


def test_readme_commands_parse(capsys):
    """Every ``python -m repro`` command README.md shows parses, so a
    removed flag cannot linger in the docs."""
    commands = [
        shlex.split(line.split("python -m repro", 1)[1].split("#", 1)[0])
        for line in README.read_text(encoding="utf-8").splitlines()
        if "python -m repro" in line and "..." not in line
    ]
    assert commands
    parser = build_parser()
    for argv in commands:
        try:
            parser.parse_args(argv)
        except SystemExit as exc:
            assert exc.code == 0 and argv == ["--version"], argv


def test_serve_bench_smoke(capsys):
    rc = main(
        [
            "serve-bench",
            "--requests",
            "60",
            "--workers",
            "2",
            "--batch",
            "8",
            "--size",
            "16x16",
            "--shapes",
            "heat2d, blur2d",  # whitespace after commas must be tolerated
            "--json",
        ]
    )
    assert rc == 0
    out = capsys.readouterr().out
    assert "plan cache" in out
    assert "throughput" in out
    payload = json.loads(out[out.index("{"):])
    assert payload["requests"] == 60
    assert payload["errors"] == 0
    assert 0.0 <= payload["cache_hit_rate"] <= 1.0


def test_serve_bench_steps_smoke(capsys):
    rc = main(
        [
            "serve-bench",
            "--requests",
            "24",
            "--workers",
            "2",
            "--size",
            "16x16",
            "--shapes",
            "heat2d",
            "--steps",
            "4",
            "--json",
        ]
    )
    assert rc == 0
    out = capsys.readouterr().out
    assert "sweeps advanced" in out
    assert "sweep throughput" in out
    payload = json.loads(out[out.index("{"):])
    assert payload["steps"] == 4
    assert payload["sweeps"] == 24 * 4
    assert payload["sweeps_per_s"] > payload["throughput_rps"]
    assert payload["errors"] == 0


def test_serve_bench_open_loop_smoke(capsys):
    rc = main(
        [
            "serve-bench",
            "--requests",
            "20",
            "--workers",
            "2",
            "--size",
            "16x16",
            "--shapes",
            "heat2d",
            "--rate",
            "5000",
        ]
    )
    assert rc == 0
    assert "requests served        20" in capsys.readouterr().out
