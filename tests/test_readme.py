"""The README's Python quick start and command-line examples run as written."""

import pathlib
import re
import shlex

import pytest

from teleportsim.cli import main

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def test_quick_start_runs(capsys):
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), flags=re.S)
    assert len(blocks) == 1
    exec(compile(blocks[0], str(README), "exec"), {})
    mean_fidelity, total = capsys.readouterr().out.split()
    assert abs(float(mean_fidelity) - 1.0) <= 1e-10
    assert float(total) > 0.0


def _command_lines():
    """Each `teleportsim ...` line of the Command line section's sh block, split."""
    section = README.read_text().split("\n## Command line\n", 1)[1].split("\n## ", 1)[0]
    block = re.search(r"```sh\n(.*?)```", section, flags=re.S).group(1)
    return [shlex.split(line, comments=True) for line in block.splitlines()
            if line.startswith("teleportsim ")]


def test_every_subcommand_shown():
    assert sorted(argv[1] for argv in _command_lines()) == sorted(
        ["verify", "report", "sweep-case1", "sweep-case2", "sweep-degenerate", "bounds"])


@pytest.mark.parametrize("argv", _command_lines(), ids=lambda argv: argv[1])
def test_command_line_example_runs(argv, capsys):
    assert argv[0] == "teleportsim"
    assert main(argv[1:]) == 0
    captured = capsys.readouterr()
    assert captured.out and captured.err == ""
