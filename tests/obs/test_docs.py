"""docs/OBSERVABILITY.md must document exactly the live metric and event
namespaces -- the doc is a reference, so it is held to the registry the
same way docs/DIAGNOSTICS.md is held to the diagnostic codes."""

from __future__ import annotations

import re
from dataclasses import fields

from tests.doccheck import assert_documents_exactly, assert_listed_once, doc_path

from repro.core.database import Database
from repro.obs.events import EVENT_TYPES
from repro.workloads import sum_node_schema

DOC = doc_path("OBSERVABILITY.md")
METRIC_BULLET = re.compile(r"^- `([a-z_]+(?:\.[a-z_]+)+)`", re.MULTILINE)
EVENT_HEADING = re.compile(r"^### `(\w+)`$", re.MULTILINE)


def documented_metrics() -> list[str]:
    return METRIC_BULLET.findall(DOC.read_text())


def test_every_live_metric_is_documented_and_vice_versa():
    assert_documents_exactly(
        documented_metrics(),
        Database(sum_node_schema()).metrics().flatten(),
        DOC.name,
        "Database.metrics()",
    )


def test_no_metric_is_documented_twice():
    assert_listed_once(documented_metrics(), DOC.name)


def test_every_event_type_is_documented_and_vice_versa():
    headings = EVENT_HEADING.findall(DOC.read_text())
    # The metric sections also use ### headings, but only with dotted
    # backticked names; event headings are bare type names.
    assert_listed_once(headings, DOC.name)
    assert_documents_exactly(
        [h for h in headings if h in EVENT_TYPES or "." not in h],
        EVENT_TYPES,
        DOC.name,
        "repro.obs.EVENT_TYPES",
    )


def test_every_event_field_is_documented_in_its_section():
    text = DOC.read_text()
    for name, cls in EVENT_TYPES.items():
        heading = f"### `{name}`"
        rest = text[text.index(heading) + len(heading) :]
        next_heading = re.search(r"^#{2,3} ", rest, re.MULTILINE)
        section = rest[: next_heading.start()] if next_heading else rest
        for f in fields(cls):
            if f.name in ("session", "txn"):
                continue  # common attribution, documented once
            assert f"`{f.name}`" in section, (
                f"field {f.name!r} of event {name!r} is not documented"
            )
