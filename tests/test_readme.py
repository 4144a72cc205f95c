"""The README's library and command-line examples run as written."""

from __future__ import annotations

import re
import shlex
from pathlib import Path

import pytest

from artindex.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"


def library_block() -> str:
    section = README.read_text(encoding="utf-8").split("\n## Library\n", 1)[1]
    match = re.search(r"```python\n(.*?)```", section, re.S)
    assert match, "no python block in the README's Library section"
    return match.group(1)


def command_lines() -> list[str]:
    section = README.read_text(encoding="utf-8").split("\n## Command line\n", 1)[1]
    match = re.search(r"```bash\n(.*?)```", section, re.S)
    assert match, "no bash block in the README's Command line section"
    return [line for line in match.group(1).splitlines() if line.startswith("artindex ")]


def test_library_example_runs():
    namespace: dict = {}
    exec(compile(library_block(), str(README), "exec"), namespace)
    assert namespace["report"].compliant is False
    assert namespace["sub"] == namespace["ds"]


@pytest.mark.parametrize(
    "example", [shlex.split(line, comments=True)[1:] for line in command_lines()], ids=" ".join
)
def test_command_example_runs(example, tmp_path, capsys):
    argv = list(example)
    if "--outdir" in argv:
        argv[argv.index("--outdir") + 1] = str(tmp_path / "out")
    # an uncaught error raises here and 2 is a usage error; 3 and 4 are findings
    assert main(argv) not in (1, 2)
