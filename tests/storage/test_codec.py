"""Persistence (save/load) tests."""

import json

import pytest

from repro.core.database import Database
from repro.errors import StorageError
from repro.storage.codec import (
    decode_record,
    decode_value,
    dump_database,
    encode_record,
    encode_value,
    load_database,
    restore_database,
    save_database,
)
from repro.txn.log import ConnectRecord, CreateRecord, SetAttrRecord
from repro.workloads import build_chain, link, sum_node_schema


class TestValueCodec:
    @pytest.mark.parametrize(
        "value",
        [42, 3.5, "text", True, None, (1, 2, 3), [1, "a"], {"k": (1, 2)}],
    )
    def test_round_trip(self, value):
        assert decode_value(encode_value(value)) == value

    def test_tuple_stays_tuple(self):
        decoded = decode_value(encode_value((1, (2, 3))))
        assert isinstance(decoded, tuple)
        assert isinstance(decoded[1], tuple)

    def test_json_compatible(self):
        json.dumps(encode_value({"a": (1, [2, "x"])}))

    def test_unserialisable_rejected(self):
        with pytest.raises(StorageError):
            encode_value(object())


class TestRecordCodec:
    @pytest.mark.parametrize(
        "record",
        [
            SetAttrRecord(3, "weight", 1, 2),
            CreateRecord(7, "node", {"weight": 4}),
            ConnectRecord(1, "inputs", 2, "outputs"),
        ],
    )
    def test_round_trip(self, record):
        assert decode_record(encode_record(record)) == record


def reload(db, schema):
    """``db`` written as an image and read back through its text."""
    text = "".join(json.dumps(record) + "\n" for record in dump_database(db))
    restored, __ = restore_database(map(json.loads, text.splitlines()), schema)
    return restored


class TestDatabaseImage:
    def build(self):
        db = Database(sum_node_schema(), pool_capacity=64)
        nodes = build_chain(db, 6)
        db.set_attr(nodes[0], "weight", 10)
        db.get_attr(nodes[2], "total")  # leave a stale tail
        return db, nodes

    def test_values_survive(self, tmp_path):
        db, nodes = self.build()
        path = tmp_path / "image.json"
        save_database(db, str(path))
        restored, header = load_database(str(path), sum_node_schema())
        assert header["format"] == 3 and header["next_iid"] == max(nodes) + 1
        assert restored.get_attr(nodes[-1], "total") == 15
        assert restored.get_attr(nodes[0], "weight") == 10

    def test_out_of_date_marks_survive(self):
        db, nodes = self.build()
        restored = reload(db, sum_node_schema())
        assert restored.engine.out_of_date == db.engine.out_of_date

    def test_connection_order_survives(self):
        db = Database(sum_node_schema())
        hub = db.create("node")
        ups = [db.create("node", weight=i) for i in range(3)]
        for up in reversed(ups):  # deliberately non-id order
            link(db, up, hub)
        restored = reload(db, sum_node_schema())
        assert restored.view(hub).connections("inputs") == list(reversed(ups))

    def test_history_survives_and_undo_works(self):
        db, nodes = self.build()
        restored = reload(db, sum_node_schema())
        restored.undo()  # undoes the set_attr
        assert restored.get_attr(nodes[-1], "total") == 6

    def test_id_allocation_continues(self):
        db, nodes = self.build()
        restored = reload(db, sum_node_schema())
        assert restored.create("node") > max(nodes)

    def test_block_layout_survives(self):
        db, nodes = self.build()
        layout = {iid: db.storage.block_of(iid) for iid in db.instance_ids()}
        restored = reload(db, sum_node_schema())
        # Same co-residency structure (block ids may be renumbered).
        groups = {}
        for iid, block in layout.items():
            groups.setdefault(block, set()).add(iid)
        restored_groups = {}
        for iid in restored.instance_ids():
            restored_groups.setdefault(
                restored.storage.block_of(iid), set()
            ).add(iid)
        assert sorted(map(sorted, groups.values())) == sorted(
            map(sorted, restored_groups.values())
        )

    def test_subtype_membership_survives(self, person_db):
        from tests.conftest import give_cars, make_person_schema

        alice = person_db.create("person", name="alice")
        give_cars(person_db, alice, 4)
        assert person_db.is_member(alice, "car_buff")
        restored = reload(person_db, make_person_schema())
        assert restored.is_member(alice, "car_buff")
        assert restored.get_attr(alice, "club") == "road&track"

    def test_schema_mismatch_rejected(self):
        from repro.core.schema import Schema

        db, __ = self.build()
        with pytest.raises(StorageError, match="does not declare"):
            restore_database(dump_database(db), Schema().freeze())

    def test_format_version_checked(self):
        db, __ = self.build()
        image = list(dump_database(db))
        image[0]["format"] = 99
        with pytest.raises(StorageError, match="format"):
            restore_database(image, sum_node_schema())

    def test_restored_db_fully_functional(self):
        db, nodes = self.build()
        restored = reload(db, sum_node_schema())
        extra = restored.create("node", weight=100)
        link(restored, nodes[-1], extra)
        assert restored.get_attr(extra, "total") == 115
        restored.set_attr(nodes[0], "weight", 0)
        assert restored.get_attr(extra, "total") == 105
