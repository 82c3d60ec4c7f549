"""Every ``python`` block of README.md runs as it is written."""

import re

import pytest
from conftest import REPO

BLOCKS = re.findall(r"^```python\n(.*?)^```$", (REPO / "README.md").read_text(encoding="utf-8"),
                    re.MULTILINE | re.DOTALL)


def test_readme_has_python():
    assert BLOCKS


@pytest.mark.parametrize("index", range(len(BLOCKS)))
def test_python_block_runs(index):
    exec(compile(BLOCKS[index], f"README.md python block {index}", "exec"), {"__name__": "readme"})
