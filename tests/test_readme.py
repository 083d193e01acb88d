"""The README's Python examples run against the installed package."""

import re
from pathlib import Path

import pytest

README = Path(__file__).resolve().parents[1] / "README.md"
BLOCKS = re.findall(r"^```python\n(.*?)^```", README.read_text(encoding="utf-8"),
                    re.DOTALL | re.MULTILINE)


def test_readme_has_python_blocks():
    assert BLOCKS


@pytest.mark.parametrize("block", range(len(BLOCKS)))
def test_readme_python_block_runs(block):
    exec(compile(BLOCKS[block], f"README.md python block {block}", "exec"), {})
