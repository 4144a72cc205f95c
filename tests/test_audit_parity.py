"""Audit reports on the bundled data, byte for byte against the checked-in corpus.

The expected stdout and exit status of each case live in
``tests/data/audit_parity``; ``tests/make_audit_parity.py`` regenerates them.
"""

from __future__ import annotations

import json

import pytest

from make_audit_parity import CASES, CORPUS, run_case

EXIT_CODES = json.loads((CORPUS / "exit_codes.json").read_text(encoding="utf-8"))


def test_corpus_holds_every_case():
    assert sorted(EXIT_CODES) == sorted(CASES)
    assert sorted(p.stem for p in CORPUS.glob("*.json") if p.name != "exit_codes.json") == sorted(CASES)


@pytest.mark.parametrize("name", sorted(CASES))
def test_report_is_byte_identical(name):
    code, stdout = run_case(CASES[name])
    assert code == EXIT_CODES[name]
    assert stdout.encode("utf-8") == (CORPUS / f"{name}.json").read_bytes()
