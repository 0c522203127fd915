"""Incremental maintenance of attribute indexes and subtype extents.

The structures in :mod:`repro.index` are themselves derived data: every
test here mutates the database through the ordinary primitives and then
checks the indexes against ground truth recomputed naively, including
across rollback, undo, and dynamic schema extension.
"""

import pytest

from repro.core.database import Database
from repro.dsl import compile_schema
from repro.errors import SchemaError
from repro.index import IndexManager

SOURCE = """
object class item is
  attributes
    weight : integer;
    label  : string;
    twice  : integer;
  rules
    twice = weight * 2;
end object;

object class heavy_item subtype of item where weight > 10 is
  attributes
    heavy : boolean;
  rules
    heavy = true;
end object;
"""


def make_db(*indexed, functions=None, source=SOURCE):
    schema = compile_schema(source, functions=functions, freeze=False)
    for attr in indexed:
        schema.add_index("item", attr)
    schema.freeze()
    return Database(schema)


def index_of(db, attr, class_name="item"):
    return db.indexes.attr_indexes[(class_name, attr)]


def ground_truth(db, attr, class_name="item"):
    """What the index's buckets must equal: a naive sweep of the catalog."""
    buckets = {}
    for iid in db.instances_of(class_name):
        buckets.setdefault(db.get_attr(iid, attr), []).append(iid)
    return buckets


class TestSchemaDeclaration:
    def test_duplicate_index_rejected(self):
        schema = compile_schema(SOURCE, freeze=False)
        schema.add_index("item", "weight")
        with pytest.raises(SchemaError, match="already declares an index"):
            schema.add_index("item", "weight")

    def test_unknown_class_rejected_at_freeze(self):
        schema = compile_schema(SOURCE, freeze=False)
        schema.add_index("nonesuch", "weight")
        with pytest.raises(SchemaError, match="unknown object class"):
            schema.freeze()

    def test_unknown_attribute_rejected_at_freeze(self):
        schema = compile_schema(SOURCE, freeze=False)
        schema.add_index("item", "nonesuch")
        with pytest.raises(SchemaError, match="no attribute"):
            schema.freeze()

    def test_index_on_predicate_subtype_rejected(self):
        schema = compile_schema(SOURCE, freeze=False)
        schema.add_index("heavy_item", "weight")
        with pytest.raises(SchemaError, match="predicate subtype"):
            schema.freeze()

    def test_drop_index(self):
        schema = compile_schema(SOURCE, freeze=False)
        schema.add_index("item", "weight")
        schema.drop_index("item", "weight")
        schema.freeze()
        db = Database(schema)
        assert db.indexes.attr_indexes == {}


class TestIntrinsicMaintenance:
    def test_create_and_set_attr_move_buckets(self):
        db = make_db("weight")
        a = db.create("item", weight=3)
        b = db.create("item", weight=3)
        c = db.create("item", weight=8)
        index = index_of(db, "weight")
        assert index.buckets == {3: [a, b], 8: [c]}
        db.set_attr(b, "weight", 8)
        assert index.buckets == {3: [a], 8: [b, c]}
        assert not index.pending

    def test_delete_removes_everywhere(self):
        db = make_db("weight")
        a = db.create("item", weight=3)
        b = db.create("item", weight=3)
        db.delete(a)
        index = index_of(db, "weight")
        assert index.buckets == {3: [b]}
        assert index.key_of == {b: 3}

    def test_rollback_restores_index(self):
        db = make_db("weight")
        a = db.create("item", weight=3)
        before = dict(index_of(db, "weight").buckets)
        with pytest.raises(RuntimeError):
            with db.transaction("doomed"):
                db.create("item", weight=9)
                db.set_attr(a, "weight", 100)
                db.delete(a)
                raise RuntimeError("abandon")
        assert index_of(db, "weight").buckets == before
        assert index_of(db, "weight").buckets == ground_truth(db, "weight")

    def test_undo_restores_index(self):
        db = make_db("weight")
        a = db.create("item", weight=3)
        with db.transaction("grow"):
            db.create("item", weight=9)
            db.set_attr(a, "weight", 5)
        db.undo()
        assert index_of(db, "weight").buckets == {3: [a]}

    def test_ordered_probes(self):
        db = make_db("weight")
        for w in (5, 1, 9, 5, 3):
            db.create("item", weight=w)
        index = index_of(db, "weight")
        assert index.equal(5) == sorted(
            i for i in db.instances_of("item") if db.get_attr(i, "weight") == 5
        )
        assert index.range(">", 3) == sorted(
            i for i in db.instances_of("item") if db.get_attr(i, "weight") > 3
        )
        assert index.count_range("<=", 5) == 4
        assert index.ordered_keys(descending=False) == [1, 3, 5, 9]
        assert index.ordered_keys(descending=True) == [9, 5, 3, 1]


class TestDerivedMaintenance:
    def test_new_instances_are_pending_until_swept(self):
        db = make_db("twice")
        a = db.create("item", weight=3)
        index = index_of(db, "twice")
        assert a in index.pending
        db.indexes.refresh_attr_index(index)
        assert not index.pending
        assert index.buckets == {6: [a]}

    def test_stale_slots_swept_from_out_of_date_set(self):
        db = make_db("twice")
        a = db.create("item", weight=3)
        index = index_of(db, "twice")
        db.indexes.refresh_attr_index(index)
        db.set_attr(a, "weight", 10)  # invalidates twice without evaluating
        db.indexes.refresh_attr_index(index)
        assert index.buckets == {20: [a]}
        assert db.indexes.stats.swept_slots >= 2

    def test_refresh_matches_ground_truth_after_churn(self):
        db = make_db("twice")
        iids = [db.create("item", weight=w) for w in (1, 2, 3, 4)]
        db.indexes.refresh_attr_index(index_of(db, "twice"))
        db.set_attr(iids[0], "weight", 7)
        db.delete(iids[1])
        db.set_attr(iids[2], "weight", 7)
        db.indexes.refresh_attr_index(index_of(db, "twice"))
        assert index_of(db, "twice").buckets == ground_truth(db, "twice")

    def test_unhashable_value_quarantines_index(self):
        source = SOURCE.replace(
            "twice = weight * 2;", "twice = boxed(weight);"
        ).replace("twice  : integer;", "twice  : any;")
        db = make_db(
            "twice", functions={"boxed": lambda w: [w]}, source=source
        )
        a = db.create("item", weight=3)
        index = index_of(db, "twice")
        db.indexes.refresh_attr_index(index)
        assert a in index.unhashable
        assert not index.usable


class TestExtents:
    def test_membership_flips_track_attribute_changes(self):
        db = make_db()
        a = db.create("item", weight=5)
        extent = db.indexes.extents["heavy_item"]
        db.indexes.refresh_extent(extent)
        assert extent.members == set()
        db.set_attr(a, "weight", 20)
        db.indexes.refresh_extent(extent)
        assert extent.members == {a}
        db.set_attr(a, "weight", 2)
        db.indexes.refresh_extent(extent)
        assert extent.members == set()

    def test_delete_leaves_extent(self):
        db = make_db()
        a = db.create("item", weight=20)
        extent = db.indexes.extents["heavy_item"]
        db.indexes.refresh_extent(extent)
        assert extent.members == {a}
        db.delete(a)
        assert extent.members == set()
        assert a not in extent.pending

    def test_rollback_restores_membership(self):
        db = make_db()
        a = db.create("item", weight=20)
        extent = db.indexes.extents["heavy_item"]
        db.indexes.refresh_extent(extent)
        with pytest.raises(RuntimeError):
            with db.transaction("doomed"):
                db.set_attr(a, "weight", 1)
                assert not db.is_member(a, "heavy_item")
                raise RuntimeError("abandon")
        db.indexes.refresh_extent(extent)
        assert extent.members == {a}
        assert db.is_member(a, "heavy_item")


class TestDynamicExtension:
    def test_extend_schema_registers_new_extent(self):
        from repro.env.milestones import MilestoneManager

        mm = MilestoneManager()
        mm.add_milestone("a", scheduled=10, work=25)
        mm.add_milestone("b", scheduled=10, work=3)
        assert "very_late_milestone" not in mm.db.indexes.extents
        mm.add_very_late_support(limit=5)
        extent = mm.db.indexes.extents["very_late_milestone"]
        mm.db.indexes.refresh_extent(extent)
        assert len(extent.members) == 1


class TestMetricsAndDisabling:
    def test_metrics_shape(self):
        db = make_db("weight")
        db.create("item", weight=1)
        snapshot = db.obs.snapshot()["index"]
        assert snapshot["attr_indexes"] == 1
        assert snapshot["extents"] == 1  # heavy_item
        assert snapshot["entries"] == 1
        assert snapshot["inserts"] == 1

    def test_manager_rebuild_matches_incremental(self):
        db = make_db("weight")
        for w in (4, 4, 9):
            db.create("item", weight=w)
        rebuilt = IndexManager(db)
        assert (
            rebuilt.attr_indexes[("item", "weight")].buckets
            == index_of(db, "weight").buckets
        )
