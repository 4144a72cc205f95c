"""Regenerate the expected outputs of the parity corpus.

Each case in ``CASES`` is one ``artindex`` command. On the bundled data:
the eight ``monotonicity`` audits with ``--format json``, ``index`` for
both methods (as JSON and as ``--format plot`` CSV text) and ``fit``. On
``PANEL_AUDIT``, 150 sales over four periods with a strong area trend
(``perfbench/gen.py``'s ``write_csv(path, 2, 150, 4, area_trend=1.0)``,
checked in so that the corpus does not hang on numpy's random stream):
six multi-period ``monotonicity`` audits and a 20,000-trial npgm random
audit, each naming the file by its path from the repository root, which
the report echoes. Six more cases (``TABLES``) print four hpm and two
npgm audits with ``--format table``. Every case runs
from the repository root. Its stdout is stored in
``tests/data/audit_parity/<name>.json``, or ``<name>.txt`` for a table
or plot, and its exit status in ``tests/data/audit_parity/exit_codes.json``.
``reproduce`` writes files rather than a report, so the files it writes
(``summary.txt`` and six CSVs) are stored under
``tests/data/audit_parity/reproduce/`` and its exit status under the key
``reproduce``. The commands in
``USAGE_ERRORS`` fail: each stores the last line of its stderr (the error
sentence) in ``tests/data/audit_parity/usage_errors/<name>.txt`` and its
exit status under its name in ``exit_codes.json``. The commands in
``DATA_ERRORS`` parse but are refused for their data or model (exit 3), and
store the same two things, the line in ``data_errors/<name>.txt``.
``tests/test_audit_parity.py`` replays every case and compares it byte for
byte. Run from the repository root, against the code whose outputs should
become the expectation:

    PYTHONPATH=src python tests/make_audit_parity.py
"""

from __future__ import annotations

import contextlib
import io
import json
import os
from pathlib import Path

from artindex.cli import main

ROOT = Path(__file__).resolve().parent.parent
CORPUS = Path(__file__).parent / "data" / "audit_parity"
PANEL_AUDIT = "tests/data/audit_parity/panel_audit.csv"
REPRODUCE = "reproduce"
USAGE = CORPUS / "usage_errors"
DATA = CORPUS / "data_errors"

AUDITS = {
    "single_obs29": ["--mode", "single", "--obs", "29"],
    "grid": ["--mode", "grid"],
    "grid_near_one": ["--mode", "grid", "--multipliers", "1.0000000001,2,1000"],
    "random_seed7": ["--mode", "random", "--trials", "1000", "--seed", "7"],
}

PANEL_AUDITS = {
    "grid2": ["--mode", "grid", "--multipliers", "2"],
    "grid": ["--mode", "grid"],
    "random_seed1": ["--mode", "random", "--trials", "100", "--seed", "1"],
}

TABLES = {
    "hpm": {
        "grid": AUDITS["grid"],
        "random_seed7": AUDITS["random_seed7"],
        "single_obs29": AUDITS["single_obs29"],
        "panel_grid2": ["--data", PANEL_AUDIT, *PANEL_AUDITS["grid2"]],
    },
    "npgm": {
        "grid": AUDITS["grid"],
        "random_seed7": AUDITS["random_seed7"],
    },
}

CASES = {
    **{
        f"{method}_{audit}": ["monotonicity", "--method", method, *argv, "--format", "json"]
        for method in ("npgm", "hpm")
        for audit, argv in AUDITS.items()
    },
    **{
        f"{method}_panel_{audit}": [
            "monotonicity", "--method", method, "--data", PANEL_AUDIT, *argv, "--format", "json",
        ]
        for method in ("npgm", "hpm")
        for audit, argv in PANEL_AUDITS.items()
    },
    **{
        f"{method}_{audit}_table": ["monotonicity", "--method", method, *argv, "--format", "table"]
        for method, tables in TABLES.items()
        for audit, argv in tables.items()
    },
    "npgm_panel_random_seed1_20000": [
        "monotonicity", "--method", "npgm", "--data", PANEL_AUDIT,
        "--mode", "random", "--trials", "20000", "--seed", "1", "--format", "json",
    ],
    "index_npgm": ["index", "--method", "npgm", "--format", "json"],
    "index_hpm": ["index", "--method", "hpm", "--format", "json"],
    "fit": ["fit", "--format", "json"],
    "index_npgm_plot": ["index", "--method", "npgm", "--format", "plot"],
    "index_hpm_plot": ["index", "--method", "hpm", "--format", "plot"],
}

# commands refused before (exit 2) or while (exit 3) reading the data
USAGE_ERRORS = {
    "index_paasche": ["index", "--method", "paasche"],
    "fit_plot": ["fit", "--format", "plot"],
    "trials_ten": ["monotonicity", "--trials", "ten"],
    "base_value_abc": ["index", "--base-value", "abc"],
    "index_bogus": ["index", "--bogus"],
    "ambiguous_prefix": ["index", "--b", "5"],
    "data_without_value": ["index", "--data"],
    "data_option_as_value": ["index", "--data", "-x.csv"],
    "reproduce_without_outdir": ["reproduce"],
    "unknown_subcommand": ["foo"],
    "no_arguments": [],
    "random_without_seed": ["monotonicity", "--mode", "random"],
    "single_without_obs": ["monotonicity", "--mode", "single"],
    "multiplier_below_one": ["monotonicity", "--obs", "29", "--multiplier", "0.5"],
    "bad_multipliers": ["monotonicity", "--mode", "grid", "--multipliers", "1.5,abc"],
    "missing_config": ["--config", "/nonexistent.json", "index"],
    "abbreviated_config": ["--conf", "x", "index"],
    "negative_base_value": ["index", "--base-value", "-5"],
    "negative_seed": ["monotonicity", "--mode", "random", "--seed", "-1"],
}

# commands whose options parse but whose data or model is refused (exit 3)
DATA_ERRORS = {
    "unknown_obs": ["monotonicity", "--obs", "999"],
    "unknown_base": ["index", "--base", "Z"],
    "repeated_regressor": ["fit", "--regressors", "area,area"],
    "unknown_regressor": ["fit", "--regressors", "bogus"],
    "missing_area_column": ["index", "--area-column", "nope"],
    "level_past_float_range": ["index", "--method", "hpm", "--base-value", "1.5e308"],
    "melser_four_periods": [
        "monotonicity", "--data", PANEL_AUDIT, "--mode", "grid", "--multipliers", "2", "--melser", "area",
    ],
}


def case_path(name: str) -> Path:
    """Where the expected stdout of case ``name`` is stored: ``.json`` for a report, else ``.txt``."""
    return CORPUS / f"{name}.{'json' if CASES[name][-1] == 'json' else 'txt'}"


def run_case(argv: list[str]) -> tuple[int, str]:
    """Exit status and stdout of one in-process ``artindex`` command, run from ``ROOT``."""
    out = io.StringIO()
    cwd = os.getcwd()
    os.chdir(ROOT)
    try:
        with contextlib.redirect_stdout(out):
            code = main(argv)
    finally:
        os.chdir(cwd)
    return code, out.getvalue()


def run_reproduce(outdir: Path) -> int:
    """Exit status of ``artindex reproduce`` writing its files under ``outdir``."""
    return run_case([REPRODUCE, "--outdir", str(outdir)])[0]


def run_usage_error(argv: list[str]) -> tuple[int, str]:
    """Exit status and last stderr line (with its newline) of one in-process failing command."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = run_case(argv)[0]
    return code, err.getvalue().splitlines()[-1] + "\n"


def write_corpus() -> None:
    """Run every case and write its outputs and exit status under ``CORPUS``."""
    CORPUS.mkdir(parents=True, exist_ok=True)
    codes = {}
    for name, argv in CASES.items():
        codes[name], stdout = run_case(argv)
        case_path(name).write_text(stdout, encoding="utf-8", newline="\n")
    codes[REPRODUCE] = run_reproduce(CORPUS / REPRODUCE)
    USAGE.mkdir(exist_ok=True)
    for name, argv in USAGE_ERRORS.items():
        codes[name], line = run_usage_error(argv)
        (USAGE / f"{name}.txt").write_text(line, encoding="utf-8", newline="\n")
    DATA.mkdir(exist_ok=True)
    for name, argv in DATA_ERRORS.items():
        codes[name], line = run_usage_error(argv)
        (DATA / f"{name}.txt").write_text(line, encoding="utf-8", newline="\n")
    (CORPUS / "exit_codes.json").write_text(json.dumps(codes, indent=2) + "\n", encoding="utf-8")


if __name__ == "__main__":
    write_corpus()
