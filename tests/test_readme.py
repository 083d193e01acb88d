"""The README's Python examples run against the installed package, and
its ``eplab`` command lines parse."""

import re
import shlex
from pathlib import Path

import pytest

from eplab import cli
from eplab.classify import _CONDITIONS

README = Path(__file__).resolve().parents[1] / "README.md"
TEXT = README.read_text(encoding="utf-8")
BLOCKS = re.findall(r"^```python\n(.*?)^```", TEXT, re.DOTALL | re.MULTILINE)
CONDITIONS = TEXT.split("### Classification conditions")[1].split("\n### ")[0]
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


def _condition_tables() -> list[list[dict[str, str]]]:
    """The rows of each table of "Classification conditions", keyed by header."""
    tables = re.findall(r"^(\|.*\|\n\|[-| ]+\|\n(?:\|.*\|\n)+)", CONDITIONS, re.MULTILINE)
    rows = [[[cell.strip() for cell in line.strip("|").split("|")]
             for line in table.splitlines()] for table in tables]
    return [[dict(zip(lines[0], line)) for line in lines[2:]] for lines in rows]


def test_readme_condition_tables_list_the_condition_ids_in_order():
    tables = _condition_tables()
    assert len(tables) == 2
    for table in tables:
        assert [row["id"] for row in table] == list(_CONDITIONS)


def test_readme_route_map_names_each_route_and_the_conditions_that_share_it():
    rows = _condition_tables()[1]
    for row in rows:
        route = _CONDITIONS[row["id"]][0]
        assert row["route"] == f"`{route}`", row["id"]
        same = set(re.findall(r"\b(?:ep|hypo|chain)\d\b", row["same number as"]))
        assert same == {cid for cid, (other, _) in _CONDITIONS.items()
                        if other == route and cid != row["id"]}, row["id"]
