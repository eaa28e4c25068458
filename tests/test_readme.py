"""The README's command-line examples run as written."""

import argparse
import os
import re
import subprocess
import sys
from pathlib import Path

import deltainv
from deltainv.cli import build_parser

README = Path(__file__).resolve().parents[1] / "README.md"


def _commands():
    """The commands of the README's "Command line" block, one per entry."""
    text = README.read_text(encoding="utf-8")
    section = text.split("## Command line", 1)[1]
    block = re.search(r"```sh\n(.*?)```", section, re.S).group(1)
    joined = block.replace("\\\n", " ")
    return [line for line in joined.splitlines() if line.strip() and not line.startswith("#")]


def test_readme_command_line_examples_exit_0(tmp_path):
    commands = _commands()
    subcommands = next(
        a.choices for a in build_parser()._actions
        if isinstance(a, argparse._SubParsersAction)
    )
    # every subcommand has an example
    assert {c.split()[1] for c in commands if c.startswith("deltainv ")} == set(subcommands)
    env = dict(os.environ, PYTHONPATH=str(Path(deltainv.__file__).parents[1]))
    # the console script need not be installed: run the module instead
    launcher = f'"{sys.executable}" -m deltainv.cli '
    for command in commands:
        command = re.sub(r"^deltainv ", launcher, command)
        proc = subprocess.run(
            command, shell=True, cwd=tmp_path, env=env,
            capture_output=True, text=True, timeout=300,
        )
        assert proc.returncode == 0, (command, proc.stderr[-2000:])
