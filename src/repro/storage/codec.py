"""Database image persistence.

Saves and restores the *data* of a database -- instances, their intrinsic
and cached values, connections, active subtypes, out-of-date marks, block
layout, and transaction history -- as JSON lines, written and read one
record at a time so neither side holds a second copy of the database.  The
*schema* is not serialised (rule bodies are arbitrary Python callables);
loading requires the same schema object, exactly as reopening a Cactis
database required the same compiled type definitions.

Values are encoded with a small tagged scheme so tuples (the ``array``
atom) and nested records survive the JSON round trip.
"""

from __future__ import annotations

import json
import os
from itertools import islice
from sys import intern
from typing import Any, Iterable, Iterator, TYPE_CHECKING

from repro.core.instance import NO_SUBTYPES, Connection
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

FORMAT_VERSION = 3

_encode_line = json.JSONEncoder(separators=(",", ":")).encode


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
            intern(payload["attr"]),
            decode_value(payload["old"]),
            decode_value(payload["new"]),
        )
    if kind == "create":
        return CreateRecord(
            payload["iid"],
            intern(payload["class"]),
            _decode_names(payload["intrinsics"]),
        )
    if kind == "delete":
        return DeleteRecord(_decode_snapshot(payload["snapshot"]))
    if kind in ("connect", "disconnect"):
        (iid_a, port_a), (iid_b, port_b) = payload["a"], payload["b"]
        ends = (iid_a, intern(port_a), iid_b, intern(port_b))
        if kind == "connect":
            return ConnectRecord(*ends)
        return DisconnectRecord(*ends, *payload["indices"])
    raise StorageError(f"unknown record kind {kind!r}")


def _decode_names(payload: Any) -> dict:
    """A decoded name -> value map whose names (the schema's vocabulary)
    are interned: one shared copy each, not one per record."""
    return {intern(name): value for name, value in decode_value(payload).items()}


def _encode_snapshot(snapshot: dict) -> dict:
    """The one instance encoding: delete snapshots and image records."""
    return {
        "iid": snapshot["iid"],
        "class": snapshot["class_name"],
        "attrs": encode_value(snapshot["attrs"]),
        "connections": {
            port: [[c.peer, c.peer_port] for c in conns]
            for port, conns in snapshot["connections"].items()
        },
        "subtypes": sorted(snapshot["active_subtypes"]),
        "out_of_date": sorted(snapshot["out_of_date"]),
    }


def _decode_snapshot(payload: dict) -> dict:
    return {
        "iid": payload["iid"],
        "class_name": intern(payload["class"]),
        "attrs": _decode_names(payload["attrs"]),
        "connections": {
            intern(port): [Connection(peer, intern(end)) for peer, end in conns]
            for port, conns in payload["connections"].items()
        },
        "active_subtypes": frozenset(map(intern, payload["subtypes"])) or NO_SUBTYPES,
        "out_of_date": [intern(name) for name in payload["out_of_date"]],
    }


# ---------------------------------------------------------------------------
# database images
# ---------------------------------------------------------------------------


def dump_database(db: "Database", **header: Any) -> Iterator[dict]:
    """The image of a database's data, one JSON-ready record at a time.

    A header (``format``, ``next_iid``, ``next_txn_id``, ``schema_classes``
    and the caller's ``header`` fields); each instance in block order,
    encoded as a delete logs it plus its ``block``; each committed
    transaction as a ``delta`` record followed by its log records; a
    trailer counting them all.
    """
    yield {
        "format": FORMAT_VERSION,
        **header,
        "next_iid": db.next_instance_id,
        "next_txn_id": db.txn.next_txn_id,
        "schema_classes": sorted(db.schema.classes),
    }
    storage = db.storage
    instances = 0
    for block_id in sorted(storage.disk.blocks):
        for iid in sorted(storage.residents_of_block(block_id)):
            record = _encode_snapshot(db._snapshot(iid))
            record["block"] = block_id
            yield record
            instances += 1
    records = 0
    for delta in db.txn.history:
        yield {"delta": delta.txn_id, "label": delta.label, "records": len(delta.records)}
        for record in delta.records:
            yield encode_record(record)
        records += len(delta.records)
    deltas = len(db.txn.history)
    yield {"end": {"instances": instances, "deltas": deltas, "records": records}}


def restore_database(records: Iterable[dict], schema, **db_kwargs) -> tuple["Database", dict]:
    """Rebuild a database from an image stream; returns it and the header.

    Each instance record becomes its instance as it arrives (connections
    verbatim, marks as saved), and one saved block's records fill one fresh
    block.  The schema must declare every class the header names.  A
    damaged image -- cut short, an unparsable line, a missing field, a
    missing or mismatched trailer, another format -- raises StorageError.
    """
    from repro.core.database import Database

    db = Database(schema, **db_kwargs)
    txn = db.txn
    records = iter(records)
    try:
        header = next(records, {})
        if header.get("format") != FORMAT_VERSION:
            raise StorageError(f"unsupported image format {header.get('format')!r}")
        missing = [name for name in header["schema_classes"] if name not in schema.classes]
        if missing:
            raise StorageError(f"schema does not declare classes from the image: {missing}")
        counts = {"instances": 0, "deltas": 0, "records": 0}
        block = None
        for entry in records:
            if "block" in entry:
                if entry["block"] != block:
                    block = entry["block"]
                    db.storage.start_block()
                db._do_restore(_decode_snapshot(entry))
                counts["instances"] += 1
            elif "delta" in entry:
                delta = Delta(txn_id=entry["delta"], label=entry["label"])
                delta.records.extend(
                    map(decode_record, islice(records, entry["records"]))
                )
                if len(delta.records) != entry["records"]:
                    raise StorageError("image is cut short inside a transaction")
                txn.history.append(delta)
                counts["deltas"] += 1
                counts["records"] += len(delta.records)
            elif entry.get("end") == counts and next(records, None) is None:
                break
            else:
                raise StorageError(f"image trailer {entry!r} does not match {counts}")
        else:
            raise StorageError("image is cut short: no trailer")
        db.storage.start_block()
        db._next_iid = header["next_iid"]
        txn.next_txn_id = header["next_txn_id"]
    except (LookupError, TypeError, ValueError, AttributeError) as exc:
        raise StorageError(f"unreadable image: {exc!r}") from exc
    return db, header


def save_database(db: "Database", path: str, **header: Any) -> None:
    """Write ``db``'s image to ``path``, one JSON line per record, and
    fsync it; ``header`` fields join the image header."""
    with open(path, "w", encoding="utf-8") as fh:
        for record in dump_database(db, **header):
            fh.write(_encode_line(record) + "\n")
        fh.flush()
        os.fsync(fh.fileno())


def load_database(path: str, schema, **db_kwargs) -> tuple["Database", dict]:
    """Rebuild a database from an image file; returns it and the header."""
    with open(path, encoding="utf-8") as fh:
        return restore_database(map(json.loads, fh), schema, **db_kwargs)
