"""docs/DIAGNOSTICS.md must document exactly the registered codes."""

from __future__ import annotations

import re

from tests.doccheck import assert_documents_exactly, doc_path

from repro.analysis.diagnostics import CODES

DOC = doc_path("DIAGNOSTICS.md")
HEADING = re.compile(r"^### (CA\d+) `(\w+)`", re.MULTILINE)


def test_every_registered_code_is_documented_and_vice_versa():
    assert_documents_exactly(
        [code for code, __ in HEADING.findall(DOC.read_text())],
        CODES,
        DOC.name,
        "repro.analysis.diagnostics.CODES",
    )


def test_documented_severities_match_the_registry():
    for code, severity in HEADING.findall(DOC.read_text()):
        assert severity == CODES[code][0].value, code


def test_codes_are_documented_in_ascending_order():
    order = [code for code, _ in HEADING.findall(DOC.read_text())]
    assert order == sorted(order)


def test_facts_dump_doc_matches_the_real_json_shape():
    """The `--facts` section's example must name exactly the keys
    AnalysisFacts.to_json emits (and the cost sub-keys), so the doc can
    never drift from the dump consumers parse."""
    from repro.analysis.facts import AnalysisFacts

    text = DOC.read_text()
    assert "## The `--facts` JSON dump" in text
    payload = AnalysisFacts().to_json()
    for key in payload:
        assert f'"{key}"' in text, f"--facts doc is missing key {key!r}"
    for key in payload["cost"]:
        assert f'"{key}"' in text, f"--facts doc is missing cost key {key!r}"
