"""CLI: --version and the commands README.md shows."""

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
