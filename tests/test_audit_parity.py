"""Reports and files on the bundled data, byte for byte against the checked-in corpus.

The expected stdout (JSON, or text for the ``--format table`` and ``plot`` cases) and
exit status of each case, the files that ``reproduce`` writes, and the
exit status and error line of each refused command (a usage error, or a
data error) live in
``tests/data/audit_parity``; ``tests/make_audit_parity.py`` regenerates them.
"""

from __future__ import annotations

import json

import pytest

from artindex import report
from make_audit_parity import (
    CASES,
    CORPUS,
    DATA,
    DATA_ERRORS,
    REPRODUCE,
    USAGE,
    USAGE_ERRORS,
    case_path,
    run_case,
    run_reproduce,
    run_usage_error,
)

EXIT_CODES = json.loads((CORPUS / "exit_codes.json").read_text(encoding="utf-8"))


def test_corpus_holds_every_case():
    assert sorted(EXIT_CODES) == sorted([*CASES, *USAGE_ERRORS, *DATA_ERRORS, REPRODUCE])
    assert sorted(p.stem for p in USAGE.iterdir()) == sorted(USAGE_ERRORS)
    assert sorted(p.stem for p in DATA.iterdir()) == sorted(DATA_ERRORS)
    stored = [p for p in [*CORPUS.glob("*.json"), *CORPUS.glob("*.txt")] if p.name != "exit_codes.json"]
    assert sorted(stored) == sorted(case_path(name) for name in CASES)
    assert sum(p.suffix == ".txt" for p in stored) == 6


@pytest.mark.parametrize("name", sorted(CASES))
def test_report_is_byte_identical(name):
    code, stdout = run_case(CASES[name])
    assert code == EXIT_CODES[name]
    assert stdout.encode("utf-8") == case_path(name).read_bytes()


def test_reproduce_files_are_byte_identical(tmp_path):
    assert run_reproduce(tmp_path) == EXIT_CODES[REPRODUCE]
    expected = sorted(p.name for p in (CORPUS / REPRODUCE).iterdir())
    assert sorted(p.name for p in tmp_path.iterdir()) == expected
    for name in expected:
        assert (tmp_path / name).read_bytes() == (CORPUS / REPRODUCE / name).read_bytes(), name


def test_no_command_takes_the_stdlib_writer(tmp_path, monkeypatch):
    # the writer's own paths write every report artindex prints; json.dumps is only its fallback
    def refuse(o, indent):
        raise AssertionError(f"json.dumps fallback for a {type(o).__name__}")

    monkeypatch.setattr(report, "_stdlib_text", refuse)
    with pytest.raises(AssertionError, match="fallback for a dict"):
        report._indented_json({1: "a"})
    for name, argv in CASES.items():
        code, stdout = run_case(argv)
        assert code == EXIT_CODES[name]
        assert stdout.encode("utf-8") == case_path(name).read_bytes(), name
    code, stdout = run_case([REPRODUCE, "--outdir", str(tmp_path), "--format", "json"])
    assert code == EXIT_CODES[REPRODUCE]
    assert json.loads(stdout)["body"]["passed"] is False


@pytest.mark.parametrize("name", sorted(USAGE_ERRORS))
def test_usage_error_is_byte_identical(name):
    code, line = run_usage_error(USAGE_ERRORS[name])
    assert code == EXIT_CODES[name]
    assert line.encode("utf-8") == (USAGE / f"{name}.txt").read_bytes()


@pytest.mark.parametrize("name", sorted(DATA_ERRORS))
def test_data_error_is_byte_identical(name):
    code, line = run_usage_error(DATA_ERRORS[name])
    assert code == EXIT_CODES[name] == 3
    assert line.encode("utf-8") == (DATA / f"{name}.txt").read_bytes()
