"""docs/DISTRIBUTED.md must document exactly the live ``federation.*``
metric namespace -- held to :meth:`Federation.metrics` the same way
docs/OBSERVABILITY.md is held to ``Database.metrics()``."""

from __future__ import annotations

import re

from tests.doccheck import assert_documents_exactly, assert_listed_once, doc_path

from repro.distributed import Federation

DOC = doc_path("DISTRIBUTED.md")
METRIC_BULLET = re.compile(r"^- `(federation\.[a-z_]+)`", re.MULTILINE)
FED_EVENTS = ("fed_batch_shipped", "fed_batch_applied", "fed_migration")


def documented_metrics() -> list[str]:
    return METRIC_BULLET.findall(DOC.read_text())


def test_every_federation_metric_is_documented_and_vice_versa():
    assert_documents_exactly(
        documented_metrics(),
        Federation().metrics().flatten(),
        DOC.name,
        "Federation.metrics()",
    )


def test_no_metric_is_documented_twice():
    assert_listed_once(documented_metrics(), DOC.name)


def test_federation_events_are_referenced():
    text = DOC.read_text()
    for name in FED_EVENTS:
        assert f"`{name}`" in text, (
            f"event {name!r} is not mentioned in docs/DISTRIBUTED.md"
        )


def test_federation_events_live_in_the_global_registry():
    # The full field-level documentation lives in OBSERVABILITY.md and is
    # enforced by tests/obs/test_docs.py; here we only pin membership.
    from repro.obs.events import EVENT_TYPES

    for name in FED_EVENTS:
        assert name in EVENT_TYPES
