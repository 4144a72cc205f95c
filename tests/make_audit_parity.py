"""Regenerate the expected outputs of the audit parity corpus.

Each case is one ``artindex monotonicity --format json`` command on the
bundled data; its stdout is stored in ``tests/data/audit_parity/<name>.json``
and its exit status in ``tests/data/audit_parity/exit_codes.json``.
``tests/test_audit_parity.py`` replays every case and compares both byte
for byte. Run from the repository root, against the code whose outputs
should become the expectation:

    PYTHONPATH=src python tests/make_audit_parity.py
"""

from __future__ import annotations

import contextlib
import io
import json
from pathlib import Path

from artindex.cli import main

CORPUS = Path(__file__).parent / "data" / "audit_parity"

AUDITS = {
    "single_obs29": ["--mode", "single", "--obs", "29"],
    "grid": ["--mode", "grid"],
    "grid_near_one": ["--mode", "grid", "--multipliers", "1.0000000001,2,1000"],
    "random_seed7": ["--mode", "random", "--trials", "1000", "--seed", "7"],
}

CASES = {
    f"{method}_{audit}": ["monotonicity", "--method", method, *argv, "--format", "json"]
    for method in ("npgm", "hpm")
    for audit, argv in AUDITS.items()
}


def run_case(argv: list[str]) -> tuple[int, str]:
    """Exit status and stdout of one in-process ``artindex`` command."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    return code, out.getvalue()


def write_corpus() -> None:
    """Run every case and write its stdout and exit status under ``CORPUS``."""
    CORPUS.mkdir(parents=True, exist_ok=True)
    codes = {}
    for name, argv in CASES.items():
        codes[name], stdout = run_case(argv)
        (CORPUS / f"{name}.json").write_text(stdout, encoding="utf-8", newline="\n")
    (CORPUS / "exit_codes.json").write_text(json.dumps(codes, indent=2) + "\n", encoding="utf-8")


if __name__ == "__main__":
    write_corpus()
