"""The README's Python examples run as written."""

import os
import re

import pytest

README = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "README.md")

with open(README) as handle:
    PYTHON_BLOCKS = re.findall(r"^```python\n(.*?)^```$", handle.read(), re.M | re.S)


def test_the_readme_has_a_python_example():
    assert PYTHON_BLOCKS


@pytest.mark.parametrize("block", range(len(PYTHON_BLOCKS)))
def test_readme_python_block_runs(block, capsys):
    exec(compile(PYTHON_BLOCKS[block], f"README.md python block {block}", "exec"), {})
    assert capsys.readouterr().out
