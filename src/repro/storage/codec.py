"""Database image persistence.

Saves and restores the *data* of a database -- instances, their intrinsic
and cached values, connections, active subtypes, out-of-date marks, block
layout, and transaction history -- as a JSON document.  The *schema* is not
serialised (rule bodies are arbitrary Python callables); loading requires
the same schema object, exactly as reopening a Cactis database required the
same compiled type definitions.

Values are encoded with a small tagged scheme so tuples (the ``array``
atom) and nested records survive the JSON round trip.
"""

from __future__ import annotations

import json
from typing import Any, TYPE_CHECKING

from repro.core.instance import Connection
from repro.errors import StorageError
from repro.txn.log import (
    ConnectRecord,
    CreateRecord,
    Delta,
    DeleteRecord,
    DisconnectRecord,
    LogRecord,
    SetAttrRecord,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.database import Database

FORMAT_VERSION = 1


# ---------------------------------------------------------------------------
# value encoding
# ---------------------------------------------------------------------------


def encode_value(value: Any) -> Any:
    """JSON-safe encoding preserving tuples and nested structures."""
    if isinstance(value, tuple):
        return {"__t": "tuple", "items": [encode_value(v) for v in value]}
    if isinstance(value, list):
        return {"__t": "list", "items": [encode_value(v) for v in value]}
    if isinstance(value, dict):
        return {
            "__t": "dict",
            "items": [[encode_value(k), encode_value(v)] for k, v in value.items()],
        }
    if isinstance(value, (int, float, str, bool)) or value is None:
        return value
    raise StorageError(f"value {value!r} is not serialisable")


def decode_value(payload: Any) -> Any:
    """Inverse of :func:`encode_value`."""
    if isinstance(payload, dict) and "__t" in payload:
        tag = payload["__t"]
        if tag == "tuple":
            return tuple(decode_value(v) for v in payload["items"])
        if tag == "list":
            return [decode_value(v) for v in payload["items"]]
        if tag == "dict":
            return {
                decode_value(k): decode_value(v) for k, v in payload["items"]
            }
        raise StorageError(f"unknown value tag {tag!r}")
    return payload


# ---------------------------------------------------------------------------
# log-record encoding
# ---------------------------------------------------------------------------


def encode_record(record: LogRecord) -> dict:
    """JSON-ready encoding of one undo-log record."""
    if isinstance(record, SetAttrRecord):
        return {
            "kind": "set",
            "iid": record.iid,
            "attr": record.attr,
            "old": encode_value(record.old_value),
            "new": encode_value(record.new_value),
        }
    if isinstance(record, CreateRecord):
        return {
            "kind": "create",
            "iid": record.iid,
            "class": record.class_name,
            "intrinsics": encode_value(record.intrinsics),
        }
    if isinstance(record, DeleteRecord):
        return {"kind": "delete", "snapshot": _encode_snapshot(record.snapshot)}
    if isinstance(record, ConnectRecord):
        return {
            "kind": "connect",
            "a": [record.iid_a, record.port_a],
            "b": [record.iid_b, record.port_b],
        }
    if isinstance(record, DisconnectRecord):
        return {
            "kind": "disconnect",
            "a": [record.iid_a, record.port_a],
            "b": [record.iid_b, record.port_b],
            "indices": [record.index_a, record.index_b],
        }
    raise StorageError(f"unknown log record {record!r}")


def decode_record(payload: dict) -> LogRecord:
    """Inverse of :func:`encode_record`."""
    kind = payload["kind"]
    if kind == "set":
        return SetAttrRecord(
            payload["iid"],
            payload["attr"],
            decode_value(payload["old"]),
            decode_value(payload["new"]),
        )
    if kind == "create":
        return CreateRecord(
            payload["iid"], payload["class"], decode_value(payload["intrinsics"])
        )
    if kind == "delete":
        return DeleteRecord(_decode_snapshot(payload["snapshot"]))
    if kind == "connect":
        return ConnectRecord(*payload["a"], *payload["b"])
    if kind == "disconnect":
        return DisconnectRecord(
            *payload["a"], *payload["b"], *payload["indices"]
        )
    raise StorageError(f"unknown record kind {kind!r}")


def _encode_snapshot(snapshot: dict) -> dict:
    return {
        "iid": snapshot["iid"],
        "class": snapshot["class_name"],
        "attrs": encode_value(snapshot["attrs"]),
        "connections": {
            port: [[c.peer, c.peer_port] for c in conns]
            for port, conns in snapshot["connections"].items()
        },
        "subtypes": sorted(snapshot["active_subtypes"]),
        "out_of_date": sorted(snapshot.get("out_of_date", [])),
    }


def _decode_snapshot(payload: dict) -> dict:
    return {
        "iid": payload["iid"],
        "class_name": payload["class"],
        "attrs": decode_value(payload["attrs"]),
        "connections": {
            port: [Connection(peer, peer_port) for peer, peer_port in conns]
            for port, conns in payload["connections"].items()
        },
        "active_subtypes": set(payload["subtypes"]),
        "out_of_date": list(payload["out_of_date"]),
    }


# ---------------------------------------------------------------------------
# database images
# ---------------------------------------------------------------------------


def dump_database(db: "Database") -> dict:
    """Produce the JSON-ready image of a database's data."""
    instances = []
    for iid in db.instance_ids():
        inst = db.instance(iid)
        instances.append(
            {
                "iid": iid,
                "class": inst.class_name,
                "attrs": encode_value(inst.attrs),
                "connections": {
                    port: [[c.peer, c.peer_port] for c in conns]
                    for port, conns in inst.connections.items()
                },
                "subtypes": sorted(inst.active_subtypes),
                "block": db.storage.block_of(iid),
            }
        )
    return {
        "format": FORMAT_VERSION,
        "schema_classes": sorted(db.schema.classes),
        "next_iid": db._next_iid,
        "instances": instances,
        "out_of_date": sorted(
            [list(slot) for slot in db.engine.out_of_date]
        ),
        "history": [
            {
                "txn_id": delta.txn_id,
                "label": delta.label,
                "records": [encode_record(r) for r in delta.records],
            }
            for delta in db.txn.history
        ],
    }


def save_database(db: "Database", path: str) -> None:
    """Write a database image to ``path``."""
    with open(path, "w") as fh:
        json.dump(dump_database(db), fh, indent=1)


def restore_database(image: dict, schema, **db_kwargs) -> "Database":
    """Rebuild a database from an image against the given schema.

    The schema must declare (at least) every class named in the image;
    mismatches surface as the usual schema/attribute errors during
    reconstruction.
    """
    from repro.core.database import Database

    if image.get("format") != FORMAT_VERSION:
        raise StorageError(
            f"unsupported image format {image.get('format')!r}"
        )
    missing = [
        name for name in image["schema_classes"] if name not in schema.classes
    ]
    if missing:
        raise StorageError(
            f"schema does not declare classes from the image: {missing}"
        )
    db = Database(schema, **db_kwargs)
    # Pass 1: instances with attributes and subtypes (no connections yet).
    blocks: dict[int, list[int]] = {}
    for entry in image["instances"]:
        db._do_create(
            entry["iid"],
            entry["class"],
            decode_value(entry["attrs"]),
            active_subtypes=entry["subtypes"],
        )
        blocks.setdefault(entry["block"], []).append(entry["iid"])
    db._next_iid = image["next_iid"]
    # Pass 2: connections.  Each instance's stored per-port lists are
    # installed verbatim (both ends carry their own view), preserving the
    # observable connection order exactly; the dependency edges follow from
    # them.  No invalidation runs -- the saved out-of-date marks (pass 3)
    # are authoritative.
    for entry in image["instances"]:
        instance = db.instance(entry["iid"])
        instance.connections = {
            port: [Connection(peer, peer_port) for peer, peer_port in conns]
            for port, conns in entry["connections"].items()
        }
        db.storage.resize(entry["iid"], instance.record_size())
    # Pass 3: marks, layout, and history.
    for iid, name in image["out_of_date"]:
        db.engine.restore_mark((iid, name))
    sizes = {iid: db.instance(iid).record_size() for iid in db.instance_ids()}
    layout = [blocks[block_id] for block_id in sorted(blocks)]
    if layout:
        db.storage.apply_layout(layout, lambda iid: sizes[iid])
    for delta_payload in image["history"]:
        delta = Delta(
            txn_id=delta_payload["txn_id"], label=delta_payload["label"]
        )
        delta.records.extend(
            decode_record(r) for r in delta_payload["records"]
        )
        db.txn.history.append(delta)
        db.txn._next_txn_id = max(db.txn._next_txn_id, delta.txn_id + 1)
    return db


def load_database(path: str, schema, **db_kwargs) -> "Database":
    """Read an image file and rebuild the database."""
    with open(path) as fh:
        image = json.load(fh)
    return restore_database(image, schema, **db_kwargs)
