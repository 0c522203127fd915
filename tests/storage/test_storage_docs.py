"""docs/STORAGE.md must stay truthful about the names it cites.

Unlike docs/OBSERVABILITY.md (the exhaustive reference, held to the
registries by tests/obs/test_docs.py), STORAGE.md is narrative -- but every
metric, event type, and WAL payload kind it mentions must exist, and the
``reorg`` metric namespace it owns must be covered completely.
"""

from __future__ import annotations

import re

from tests.doccheck import (
    assert_cited_files_exist,
    assert_cited_names_live,
    assert_documents_exactly,
    assert_namespace_documented,
    doc_path,
)

from repro.core.database import Database
from repro.obs.events import EVENT_TYPES
from repro.persistence.manager import WAL_NAME
from repro.persistence.wal import scan_wal
from repro.workloads import build_chain, sum_node_schema

DOC = doc_path("STORAGE.md")
# Backticked dotted names in the namespaces this doc talks about.
METRIC_REF = re.compile(r"`((?:reorg|wal|scheduler|latency)\.[a-z_.]+)`")
# `reorg_begin`/`reorg_end` in prose are WAL payload kinds, not events.
EVENT_REF = re.compile(r"`(reorg_epoch_start|reorg_step|reorg_epoch_end)`")
PAYLOAD_KIND = re.compile(r"\"type\": \"(\w+)\"")


def live_metrics() -> set[str]:
    return set(Database(sum_node_schema()).metrics().flatten())


def test_every_cited_metric_is_live():
    assert_cited_names_live(
        METRIC_REF.findall(DOC.read_text()), live_metrics(), DOC.name
    )


def test_reorg_namespace_fully_documented():
    assert_namespace_documented(
        "reorg.", METRIC_REF.findall(DOC.read_text()), live_metrics(), DOC.name
    )


def test_every_cited_event_type_is_live():
    assert_documents_exactly(
        set(EVENT_REF.findall(DOC.read_text())),
        {t for t in EVENT_TYPES if t.startswith("reorg")},
        DOC.name,
        "the reorg event types",
    )


def journalled_reorg_kinds(directory) -> set[str]:
    """The payload kinds one durable online epoch writes to the journal."""
    db = Database.open(str(directory), sum_node_schema(), sync=False)
    build_chain(db, 6)
    db.reorganize_online()
    assert db.reorg.run_to_completion() > 0
    db.close()
    kinds = {payload["type"] for payload in scan_wal(str(directory / WAL_NAME)).payloads}
    return {kind for kind in kinds if kind.startswith("reorg")}


def test_wal_payload_kinds_match_registry(tmp_path):
    assert_documents_exactly(
        set(PAYLOAD_KIND.findall(DOC.read_text())),
        journalled_reorg_kinds(tmp_path / "db"),
        DOC.name,
        "the reorg records an epoch journals",
    )


def test_cited_test_and_bench_files_exist():
    assert assert_cited_files_exist(DOC), f"{DOC.name} cites no test files"
