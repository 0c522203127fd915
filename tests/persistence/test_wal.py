"""Unit tests for WAL framing, scanning, repair, and checkpoint files."""

import json
import os
import struct

import pytest

from repro.errors import StorageError, TransactionError
from repro.persistence.checkpoint import read_checkpoint, write_checkpoint
from repro.persistence.faults import flip_record_bit, truncate_tail
from repro.persistence.manager import WAL_NAME
from repro.persistence.wal import (
    WalScan,
    WriteAheadLog,
    repair_wal,
    scan_wal,
    wal_payload_spans,
)
from repro.core.database import Database
from repro.storage.codec import encode_record, save_database
from repro.txn.log import SetAttrRecord
from repro.workloads.topologies import build_chain, sum_node_schema


def wal_with(path, payloads, sync=False):
    wal = WriteAheadLog(path, sync=sync)
    for payload in payloads:
        wal.append(payload)
    wal.close()
    return wal


PAYLOADS = [{"type": "undo", "seq": i, "txn_id": i} for i in range(1, 4)]

_SET_WITHOUT_ATTR = {"kind": "set", "iid": 1, "old": 0, "new": 1}

#: checksum-valid payloads that are no WAL record, and how the refusal
#: names them.
MALFORMED = {
    "no-type": ({"seq": 4, "txn_id": 1}, "seq 4"),
    "no-seq": ({"type": "undo", "txn_id": 1}, "no seq"),
    "commit-no-records": ({"type": "commit", "seq": 4, "txn_id": 1, "label": ""}, "seq 4"),
    "set-no-attr": (
        {"type": "commit", "seq": 4, "txn_id": 1, "label": "", "records": [_SET_WITHOUT_ATTR]},
        "seq 4",
    ),
    "reorg-step-no-instances": ({"type": "reorg_step", "seq": 4, "epoch": 1, "step": 0}, "seq 4"),
    "fed-send-no-channel": ({"type": "fed_send", "seq": 4, "fed_seq": 1, "changes": []}, "seq 4"),
    "json-list": ([4, "commit"], "no seq"),
}


def _assert_refused(tmp_path, payload, named):
    """Opening a directory whose log holds ``payload`` raises StorageError
    naming it, and leaves the log as it was: the record is whole, so it is
    no torn tail to cut."""
    directory = tmp_path / "db"
    directory.mkdir()
    path = str(directory / WAL_NAME)
    wal_with(path, [payload])
    size = os.path.getsize(path)
    with pytest.raises(StorageError, match=named):
        Database.open(str(directory), sum_node_schema(), sync=False)
    assert os.path.getsize(path) == size


class TestFraming:
    def test_append_scan_round_trip(self, tmp_path):
        path = str(tmp_path / "wal.log")
        wal_with(path, PAYLOADS)
        scan = scan_wal(path)
        assert scan.clean
        assert scan.payloads == PAYLOADS
        assert scan.valid_bytes == os.path.getsize(path)

    def test_missing_file_scans_empty(self, tmp_path):
        scan = scan_wal(str(tmp_path / "absent.log"))
        assert scan.clean and scan.payloads == [] and scan.valid_bytes == 0

    def test_commit_payload_round_trip(self, tmp_path):
        path = str(tmp_path / "db")
        db = Database.open(path, sum_node_schema(), sync=False)
        iid = db.create("node", weight=2)
        with db.transaction("retune"):
            db.set_attr(iid, "weight", 9)
        delta = db.txn.history[-1]
        db.close()
        payload = scan_wal(os.path.join(path, WAL_NAME)).payloads[-1]
        assert payload == {
            "type": "commit",
            "seq": 2,
            "txn_id": delta.txn_id,
            "label": "retune",
            "records": [
                encode_record(SetAttrRecord(iid=iid, attr="weight", old_value=2, new_value=9))
            ],
        }
        reopened = Database.open(path, sum_node_schema(), sync=False)
        assert reopened.txn.history[-1] == delta
        assert reopened.get_attr(iid, "weight") == 9
        reopened.close()

    def test_undo_payload_round_trip(self, tmp_path):
        path = str(tmp_path / "db")
        db = Database.open(path, sum_node_schema(), sync=False)
        iid = db.create("node", weight=2)
        db.set_attr(iid, "weight", 9)
        undone = db.undo()
        db.close()
        payload = scan_wal(os.path.join(path, WAL_NAME)).payloads[-1]
        assert payload == {"type": "undo", "seq": 3, "txn_id": undone.txn_id}
        reopened = Database.open(path, sum_node_schema(), sync=False)
        assert [d.txn_id for d in reopened.txn.history] == [1]
        assert reopened.get_attr(iid, "weight") == 2
        reopened.close()

    def test_unknown_payload_type_rejected(self, tmp_path):
        _assert_refused(tmp_path, {"type": "mystery", "seq": 1}, "seq 1")

    @pytest.mark.parametrize("payload, named", MALFORMED.values(), ids=list(MALFORMED))
    def test_malformed_payload_rejected(self, tmp_path, payload, named):
        _assert_refused(tmp_path, payload, named)

    def test_sync_counts_fsyncs(self, tmp_path):
        wal = wal_with(str(tmp_path / "wal.log"), PAYLOADS, sync=True)
        assert wal.syncs == len(PAYLOADS)
        wal = wal_with(str(tmp_path / "nosync.log"), PAYLOADS, sync=False)
        assert wal.syncs == 0

    def test_reset_empties_log(self, tmp_path):
        path = str(tmp_path / "wal.log")
        wal = WriteAheadLog(path, sync=False)
        wal.append(PAYLOADS[0])
        wal.reset()
        wal.append(PAYLOADS[1])
        wal.close()
        assert scan_wal(path).payloads == [PAYLOADS[1]]


class TestTornTails:
    def test_cut_inside_payload_is_torn(self, tmp_path):
        path = str(tmp_path / "wal.log")
        wal_with(path, PAYLOADS)
        truncate_tail(path, 5)
        scan = scan_wal(path)
        assert scan.dropped == "torn"
        assert scan.payloads == PAYLOADS[:-1]

    def test_cut_inside_header_is_torn(self, tmp_path):
        path = str(tmp_path / "wal.log")
        wal_with(path, PAYLOADS)
        spans = wal_payload_spans(path)
        # Leave only 3 bytes of the final record's 8-byte header.
        truncate_tail(path, os.path.getsize(path) - (spans[-1][0] - 8) - 3)
        scan = scan_wal(path)
        assert scan.dropped == "torn"
        assert scan.payloads == PAYLOADS[:-1]

    def test_bit_flip_fails_crc(self, tmp_path):
        path = str(tmp_path / "wal.log")
        wal_with(path, PAYLOADS)
        flip_record_bit(path, record=-1, byte=2, bit=4)
        scan = scan_wal(path)
        assert scan.dropped == "crc"
        assert scan.payloads == PAYLOADS[:-1]

    def test_non_json_payload_with_matching_crc_rejected(self, tmp_path):
        import zlib

        path = str(tmp_path / "wal.log")
        data = b"not json at all"
        with open(path, "wb") as fh:
            fh.write(struct.pack(">II", len(data), zlib.crc32(data)) + data)
        assert scan_wal(path).dropped == "crc"

    def test_repair_truncates_to_valid_prefix(self, tmp_path):
        path = str(tmp_path / "wal.log")
        wal_with(path, PAYLOADS)
        truncate_tail(path, 5)
        scan = scan_wal(path)
        assert repair_wal(path, scan)
        assert os.path.getsize(path) == scan.valid_bytes
        healed = scan_wal(path)
        assert healed.clean and healed.payloads == PAYLOADS[:-1]

    def test_repair_of_clean_log_is_a_noop(self, tmp_path):
        path = str(tmp_path / "wal.log")
        wal_with(path, PAYLOADS)
        size = os.path.getsize(path)
        assert not repair_wal(path, scan_wal(path))
        assert os.path.getsize(path) == size

    def test_appends_after_repair_scan_cleanly(self, tmp_path):
        path = str(tmp_path / "wal.log")
        wal_with(path, PAYLOADS)
        truncate_tail(path, 5)
        repair_wal(path, scan_wal(path))
        wal = WriteAheadLog(path, sync=False)
        wal.append({"type": "undo", "seq": 9, "txn_id": 9})
        wal.close()
        scan = scan_wal(path)
        assert scan.clean
        assert [p["seq"] for p in scan.payloads] == [1, 2, 9]

    def test_payload_spans_address_each_record(self, tmp_path):
        path = str(tmp_path / "wal.log")
        wal_with(path, PAYLOADS)
        spans = wal_payload_spans(path)
        assert len(spans) == 3
        with open(path, "rb") as fh:
            buf = fh.read()
        for (start, length), payload in zip(spans, PAYLOADS):
            assert json.loads(buf[start : start + length]) == payload


class TestCheckpointFile:
    def _db(self):
        db = Database(sum_node_schema())
        build_chain(db, 2, weight=3)
        return db

    def test_round_trip(self, tmp_path):
        path = str(tmp_path / "checkpoint.json")
        write_checkpoint(self._db(), path, wal_seq=4)
        db, header = read_checkpoint(path, sum_node_schema())
        assert header["wal_seq"] == 4
        assert header["format"] == 3
        assert db.instance_ids() == [1, 2]

    def test_missing_checkpoint_reads_none(self, tmp_path):
        assert read_checkpoint(str(tmp_path / "absent.json"), sum_node_schema()) is None

    def test_unknown_format_rejected(self, tmp_path):
        path = str(tmp_path / "checkpoint.json")
        with open(path, "w") as fh:
            fh.write(json.dumps({"format": 99, "wal_seq": 0}) + "\n")
        with pytest.raises(StorageError, match="format"):
            read_checkpoint(path, sum_node_schema())

    def test_missing_fields_rejected(self, tmp_path):
        path = str(tmp_path / "checkpoint.json")
        with open(path, "w") as fh:
            fh.write(json.dumps({"format": 3}) + "\n")
        with pytest.raises(StorageError):
            read_checkpoint(path, sum_node_schema())
        # A complete image without the WAL high-water mark is no checkpoint.
        save_database(self._db(), path)
        with pytest.raises(StorageError, match="missing required fields"):
            read_checkpoint(path, sum_node_schema())

    def test_install_replaces_atomically(self, tmp_path):
        path = str(tmp_path / "checkpoint.json")
        write_checkpoint(self._db(), path, wal_seq=1)
        write_checkpoint(self._db(), path, wal_seq=2)
        assert read_checkpoint(path, sum_node_schema())[1]["wal_seq"] == 2
        assert not os.path.exists(path + ".tmp")

    def test_checkpoint_refused_inside_transaction(self, tmp_path):
        db = Database.open(str(tmp_path / "db"), sum_node_schema(), sync=False)
        db.begin("open-ended")
        try:
            with pytest.raises(TransactionError):
                db.checkpoint()
        finally:
            db.abort()
            db.close()
