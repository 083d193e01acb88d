"""The README's Python examples run against the installed package, and
its ``eplab`` command lines parse."""

import re
import shlex
from pathlib import Path

import pytest

from eplab import cli

README = Path(__file__).resolve().parents[1] / "README.md"
TEXT = README.read_text(encoding="utf-8")
BLOCKS = re.findall(r"^```python\n(.*?)^```", TEXT, re.DOTALL | re.MULTILINE)
COMMANDS = [shlex.split(line, comments=True)
            for block in re.findall(r"^```bash\n(.*?)^```", TEXT, re.DOTALL | re.MULTILINE)
            for line in block.splitlines() if line.startswith("eplab ")]


def test_readme_has_python_blocks():
    assert BLOCKS


@pytest.mark.parametrize("block", range(len(BLOCKS)))
def test_readme_python_block_runs(block):
    exec(compile(BLOCKS[block], f"README.md python block {block}", "exec"), {})


def test_readme_has_eplab_commands():
    assert len(COMMANDS) >= 8


@pytest.mark.parametrize("argv", COMMANDS,
                         ids=[f"{i}-{argv[1]}" for i, argv in enumerate(COMMANDS)])
def test_readme_eplab_command_parses(argv):
    args = cli.build_parser().parse_args(argv[1:])
    assert args.command == argv[1]
