"""docs/SERVER.md is a reference, so it is held to the live registries:
frame types and their fields, the op table, every ``ServerConfig`` knob
(including its default), and the ``server.*`` metrics section."""

from __future__ import annotations

import re
from dataclasses import fields

from tests.doccheck import assert_documents_exactly, doc_path

from repro.core.database import Database
from repro.server.mux import ServerConfig, SessionMultiplexer
from repro.server.protocol import OPS, REQUEST_TYPES, RESPONSE_TYPES, TXN_STATUSES
from repro.workloads import sum_node_schema

DOC = doc_path("SERVER.md")
TYPE_HEADING = re.compile(r"^### `(\w+)`$", re.MULTILINE)
OP_ROW = re.compile(r"^\| `(\w+)` \| `([^`]*)` \|", re.MULTILINE)
KNOB_BULLET = re.compile(r"^- `(\w+)` \(default `([^`]*)`\)", re.MULTILINE)
METRIC_BULLET = re.compile(r"^- `(server\.\w+)`", re.MULTILINE)


def _sections(text: str) -> dict[str, str]:
    """Map each ### heading to its body (up to the next heading)."""
    out = {}
    for match in TYPE_HEADING.finditer(text):
        rest = text[match.end() :]
        nxt = re.search(r"^#{2,3} ", rest, re.MULTILINE)
        out.setdefault(match.group(1), []).append(
            rest[: nxt.start()] if nxt else rest
        )
    return {name: "\n".join(bodies) for name, bodies in out.items()}


def test_every_frame_type_documented_with_its_fields():
    sections = _sections(DOC.read_text())
    live = {**REQUEST_TYPES, **RESPONSE_TYPES}
    assert_documents_exactly(sections, live, DOC.name, "the protocol registries")
    for name in REQUEST_TYPES:
        for field in REQUEST_TYPES[name]:
            assert f"`{field}`" in sections[name], (
                f"request {name!r}: field {field!r} undocumented"
            )
    for name in RESPONSE_TYPES:
        for field in RESPONSE_TYPES[name]:
            assert f"`{field}`" in sections[name], (
                f"response {name!r}: field {field!r} undocumented"
            )


def test_every_txn_status_documented():
    text = DOC.read_text()
    for status in TXN_STATUSES:
        assert f"`{status}`" in text


def test_op_table_matches_registry():
    found = OP_ROW.findall(DOC.read_text())
    assert_documents_exactly([name for name, __ in found], OPS, DOC.name, "OPS")
    rows = dict(found)
    for name, args in rows.items():
        # The documented argument list must match the registered arity.
        assert len(args.split(", ")) == OPS[name], (
            f"op {name!r}: documented arguments {args!r} do not match "
            f"arity {OPS[name]}"
        )


def test_every_config_knob_documented_with_true_default():
    found = KNOB_BULLET.findall(DOC.read_text())
    config = ServerConfig()
    live = {f.name: getattr(config, f.name) for f in fields(ServerConfig)}
    assert_documents_exactly(
        [name for name, __ in found], live, DOC.name, "ServerConfig"
    )
    documented = dict(found)
    for name, doc_default in documented.items():
        assert doc_default == str(live[name]), (
            f"knob {name!r}: documented default {doc_default!r} != "
            f"real default {live[name]!r}"
        )


def test_every_server_metric_documented_and_vice_versa():
    db = Database(sum_node_schema())
    mux = SessionMultiplexer(db)
    assert_documents_exactly(
        METRIC_BULLET.findall(DOC.read_text()),
        {f"server.{key}" for key in db.metrics().as_dict()["server"]},
        DOC.name,
        "the server metrics section",
    )
    latency = db.metrics().as_dict()["latency"]
    assert "request" in latency
    text = DOC.read_text()
    assert "`latency.request`" in text
    for key in latency["request"]:  # the documented timer fields are real
        assert f"`{key}`" in text, f"timer field {key!r} undocumented"
    assert mux.in_flight == 0
