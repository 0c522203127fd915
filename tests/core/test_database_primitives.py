"""Tests for the Cactis primitives on the database facade."""

import pytest

from repro.core.database import Database
from repro.errors import (
    ConnectionError_,
    IntrinsicOnlyError,
    SchemaError,
    UnknownAttributeError,
    UnknownInstanceError,
)
from repro.txn.log import DeleteRecord
from repro.workloads import build_chain, link, sum_node_schema


class _ProbeCountingSet(set):
    """A set that counts membership tests and elements handed out by iteration."""

    probes = 0

    def __contains__(self, item):
        self.probes += 1
        return super().__contains__(item)

    def __iter__(self):
        for item in super().__iter__():
            self.probes += 1
            yield item


class TestCreate:
    def test_create_with_defaults(self, db):
        iid = db.create("node")
        assert db.get_attr(iid, "weight") == 0

    def test_create_with_intrinsics(self, db):
        iid = db.create("node", weight=5)
        assert db.get_attr(iid, "weight") == 5

    def test_create_validates_atom_type(self, db):
        from repro.errors import AtomTypeError

        with pytest.raises(AtomTypeError):
            db.create("node", weight="heavy")

    def test_create_rejects_unknown_attr(self, db):
        with pytest.raises(UnknownAttributeError):
            db.create("node", colour="red")

    def test_create_rejects_derived_attr(self, db):
        with pytest.raises(UnknownAttributeError):
            # "total" is derived, so it is not an acceptable intrinsic kwarg.
            db.create("node", total=9)

    def test_ids_are_unique_and_monotonic(self, db):
        ids = [db.create("node") for __ in range(10)]
        assert ids == sorted(ids)
        assert len(set(ids)) == 10

    def test_derived_attr_defaults_before_connection(self, db):
        iid = db.create("node", weight=3)
        # No connections: the derived total is just the weight.
        assert db.get_attr(iid, "total") == 3


class TestDelete:
    def test_delete_removes_instance(self, db):
        iid = db.create("node")
        db.delete(iid)
        assert not db.exists(iid)
        with pytest.raises(UnknownInstanceError):
            db.get_attr(iid, "weight")

    def test_delete_breaks_relationships(self, db):
        a, b = db.create("node", weight=1), db.create("node", weight=2)
        link(db, a, b)
        assert db.get_attr(b, "total") == 3
        db.delete(a)
        assert db.view(b).connections("inputs") == []
        assert db.get_attr(b, "total") == 2

    def test_delete_twice_raises(self, db):
        iid = db.create("node")
        db.delete(iid)
        with pytest.raises(UnknownInstanceError):
            db.delete(iid)

    def test_len_tracks_population(self, db):
        assert len(db) == 0
        ids = [db.create("node") for __ in range(3)]
        assert len(db) == 3
        db.delete(ids[1])
        assert len(db) == 2

    @staticmethod
    def _delete_probes(unrelated_pairs: int) -> int:
        """Engine out-of-date-set probes one delete makes, with
        ``unrelated_pairs`` linked pairs elsewhere left stale."""
        db = Database(sum_node_schema(), pool_capacity=64)
        for __ in range(unrelated_pairs):
            link(db, db.create("node", weight=1), db.create("node", weight=1))
        up, victim = db.create("node", weight=1), db.create("node", weight=2)
        link(db, up, victim)
        assert len(db.engine.out_of_date) >= 2 * unrelated_pairs
        counting = db.engine.out_of_date = _ProbeCountingSet(db.engine.out_of_date)
        db.delete(victim)
        return counting.probes

    def test_delete_cost_independent_of_unrelated_stale_slots(self):
        assert self._delete_probes(0) == self._delete_probes(50)

    def test_undo_of_delete_restores_exactly_its_marks(self, db):
        up, stale, clean = (db.create("node", weight=w) for w in (1, 2, 3))
        link(db, up, stale)
        assert db.get_attr(clean, "total") == 3
        before = set(db.engine.out_of_date)
        assert {(stale, "total"), (stale, "outputs>total")} <= before
        assert not any(iid == clean for iid, __ in before)
        for victim in (stale, clean):
            db.delete(victim)
            (record,) = (
                r for r in db.txn.history[-1].records if isinstance(r, DeleteRecord)
            )
            assert sorted(record.snapshot["out_of_date"]) == sorted(
                name for iid, name in before if iid == victim
            )
            db.undo()
            assert db.engine.out_of_date == before


class TestConnect:
    def test_connect_updates_derived(self, db):
        a, b = db.create("node", weight=1), db.create("node", weight=2)
        db.connect(b, "inputs", a, "outputs")
        assert db.get_attr(b, "total") == 3

    def test_connection_order_preserved(self, db):
        hub = db.create("node")
        upstream = [db.create("node", weight=i) for i in range(3)]
        for u in upstream:
            db.connect(hub, "inputs", u, "outputs")
        assert db.view(hub).connections("inputs") == upstream

    def test_rel_type_mismatch_rejected(self, person_db):
        alice = person_db.create("person", name="alice")
        bob = person_db.create("person", name="bob")
        with pytest.raises(Exception):
            person_db.connect(alice, "cars", bob, "cars")

    def test_same_end_rejected(self, db):
        a, b = db.create("node"), db.create("node")
        with pytest.raises(ConnectionError_, match="plug must connect"):
            db.connect(a, "inputs", b, "inputs")

    def test_duplicate_connection_rejected(self, db):
        a, b = db.create("node"), db.create("node")
        db.connect(b, "inputs", a, "outputs")
        with pytest.raises(ConnectionError_, match="already connected"):
            db.connect(b, "inputs", a, "outputs")

    def test_self_port_connection_rejected(self, db):
        # Same-end check fires first; either way the connection is refused.
        a = db.create("node")
        with pytest.raises(ConnectionError_):
            db.connect(a, "inputs", a, "inputs")

    def test_self_loop_different_ports_detected_as_cycle(self, db):
        # Connecting a node's own output into its input creates a data
        # cycle; the primitive is rejected and rolled back.
        from repro.errors import CycleError

        a = db.create("node")
        db.get_attr(a, "total")
        with pytest.raises(CycleError):
            db.connect(a, "inputs", a, "outputs")
        assert db.get_attr(a, "total") == 0

    def test_single_port_cardinality(self, person_db):
        car = person_db.create("automobile", model="t")
        alice = person_db.create("person", name="alice")
        bob = person_db.create("person", name="bob")
        person_db.connect(car, "owner", alice, "cars")
        with pytest.raises(ConnectionError_, match="single-valued"):
            person_db.connect(car, "owner", bob, "cars")

    def test_unknown_port_rejected(self, db):
        a, b = db.create("node"), db.create("node")
        from repro.errors import UnknownRelationshipError

        with pytest.raises(UnknownRelationshipError):
            db.connect(a, "ghost", b, "outputs")


class TestDisconnect:
    def test_disconnect_updates_derived(self, db):
        a, b = db.create("node", weight=1), db.create("node", weight=2)
        db.connect(b, "inputs", a, "outputs")
        assert db.get_attr(b, "total") == 3
        db.disconnect(b, "inputs", a, "outputs")
        assert db.get_attr(b, "total") == 2

    def test_disconnect_unconnected_raises(self, db):
        a, b = db.create("node"), db.create("node")
        with pytest.raises(ConnectionError_, match="not connected"):
            db.disconnect(b, "inputs", a, "outputs")

    def test_disconnect_middle_preserves_order(self, db):
        hub = db.create("node")
        ups = [db.create("node", weight=i + 1) for i in range(3)]
        for u in ups:
            db.connect(hub, "inputs", u, "outputs")
        db.disconnect(hub, "inputs", ups[1], "outputs")
        assert db.view(hub).connections("inputs") == [ups[0], ups[2]]
        assert db.get_attr(hub, "total") == 1 + 3


class TestSetGet:
    def test_set_intrinsic_and_ripple(self, db):
        nodes = build_chain(db, 4)
        assert db.get_attr(nodes[-1], "total") == 4
        db.set_attr(nodes[0], "weight", 10)
        assert db.get_attr(nodes[-1], "total") == 13

    def test_set_derived_rejected(self, db):
        iid = db.create("node")
        with pytest.raises(IntrinsicOnlyError):
            db.set_attr(iid, "total", 99)

    def test_set_unknown_attr_rejected(self, db):
        iid = db.create("node")
        with pytest.raises(UnknownAttributeError):
            db.set_attr(iid, "colour", "red")

    def test_get_unknown_attr_rejected(self, db):
        iid = db.create("node")
        with pytest.raises(UnknownAttributeError):
            db.get_attr(iid, "colour")

    def test_set_validates_atom(self, db):
        from repro.errors import AtomTypeError

        iid = db.create("node")
        with pytest.raises(AtomTypeError):
            db.set_attr(iid, "weight", "heavy")

    def test_set_equal_value_is_noop(self, db):
        nodes = build_chain(db, 3)
        db.get_attr(nodes[-1], "total")
        before = db.engine.counters.snapshot()
        history_before = len(db.txn.history)
        db.set_attr(nodes[0], "weight", 1)  # already 1
        delta = db.engine.counters.delta_since(before)
        assert delta.slots_marked == 0
        assert len(db.txn.history) == history_before  # nothing logged

    def test_get_transmitted(self, db):
        a = db.create("node", weight=4)
        assert db.get_transmitted(a, "outputs", "total") == 4

    def test_create_predicate_subtype_directly_rejected(self, person_db):
        with pytest.raises(SchemaError, match="predicate subtype"):
            person_db.create("car_buff")


class TestViews:
    def test_view_read_write(self, db):
        iid = db.create("node", weight=2)
        view = db.view(iid)
        assert view["weight"] == 2
        view.set("weight", 7)
        assert view.get("total") == 7
        assert view.class_name == "node"

    def test_where_query(self, db):
        for w in (1, 5, 9):
            db.create("node", weight=w)
        heavy = db.where("node", lambda v: v["weight"] > 4)
        assert len(heavy) == 2

    def test_instances_of(self, db):
        ids = [db.create("node") for __ in range(3)]
        assert db.instances_of("node") == ids
