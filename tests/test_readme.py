"""The README's Python examples run as written.

Each ```python block of README.md runs in a fresh namespace, so the library
tour stays true to the API it shows.
"""

import re
from pathlib import Path

import pytest

README = Path(__file__).parent.parent / "README.md"
BLOCKS = re.findall(r"^```python\n(.*?)^```$", README.read_text(encoding="utf-8"),
                    flags=re.MULTILINE | re.DOTALL)


def test_readme_has_python_blocks():
    assert BLOCKS


@pytest.mark.parametrize("source", BLOCKS, ids=[f"block{k}" for k in range(len(BLOCKS))])
def test_python_block_runs(source):
    exec(compile(source, str(README), "exec"), {"__name__": "readme"})
