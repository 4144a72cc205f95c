"""The README's library example runs as written."""

from __future__ import annotations

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def library_block() -> str:
    section = README.read_text(encoding="utf-8").split("\n## Library\n", 1)[1]
    match = re.search(r"```python\n(.*?)```", section, re.S)
    assert match, "no python block in the README's Library section"
    return match.group(1)


def test_library_example_runs():
    namespace: dict = {}
    exec(compile(library_block(), str(README), "exec"), namespace)
    assert namespace["report"].compliant is False
    assert namespace["sub"] == namespace["ds"]
