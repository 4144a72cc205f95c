"""Regenerate the expected outputs of the parity corpus.

Each case in ``CASES`` is one ``artindex ... --format json`` command on the
bundled data: the eight ``monotonicity`` audits, ``index`` for both methods
and ``fit``. Its stdout is stored in ``tests/data/audit_parity/<name>.json`` and
its exit status in ``tests/data/audit_parity/exit_codes.json``. ``reproduce``
writes files rather than a report, so the files it writes (``summary.txt``
and six CSVs) are stored under ``tests/data/audit_parity/reproduce/`` and
its exit status under the key ``reproduce``.
``tests/test_audit_parity.py`` replays every case and compares it byte for
byte. Run from the repository root, against the code whose outputs should
become the expectation:

    PYTHONPATH=src python tests/make_audit_parity.py
"""

from __future__ import annotations

import contextlib
import io
import json
from pathlib import Path

from artindex.cli import main

CORPUS = Path(__file__).parent / "data" / "audit_parity"
REPRODUCE = "reproduce"

AUDITS = {
    "single_obs29": ["--mode", "single", "--obs", "29"],
    "grid": ["--mode", "grid"],
    "grid_near_one": ["--mode", "grid", "--multipliers", "1.0000000001,2,1000"],
    "random_seed7": ["--mode", "random", "--trials", "1000", "--seed", "7"],
}

CASES = {
    **{
        f"{method}_{audit}": ["monotonicity", "--method", method, *argv, "--format", "json"]
        for method in ("npgm", "hpm")
        for audit, argv in AUDITS.items()
    },
    "index_npgm": ["index", "--method", "npgm", "--format", "json"],
    "index_hpm": ["index", "--method", "hpm", "--format", "json"],
    "fit": ["fit", "--format", "json"],
}


def run_case(argv: list[str]) -> tuple[int, str]:
    """Exit status and stdout of one in-process ``artindex`` command."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    return code, out.getvalue()


def run_reproduce(outdir: Path) -> int:
    """Exit status of ``artindex reproduce`` writing its files under ``outdir``."""
    return run_case([REPRODUCE, "--outdir", str(outdir)])[0]


def write_corpus() -> None:
    """Run every case and write its outputs and exit status under ``CORPUS``."""
    CORPUS.mkdir(parents=True, exist_ok=True)
    codes = {}
    for name, argv in CASES.items():
        codes[name], stdout = run_case(argv)
        (CORPUS / f"{name}.json").write_text(stdout, encoding="utf-8", newline="\n")
    codes[REPRODUCE] = run_reproduce(CORPUS / REPRODUCE)
    (CORPUS / "exit_codes.json").write_text(json.dumps(codes, indent=2) + "\n", encoding="utf-8")


if __name__ == "__main__":
    write_corpus()
