"""Predicate-subtype membership: the paper's Car_Buff and very_late stories."""

import pytest

from repro.core.database import Database
from repro.core.instance import NO_SUBTYPES
from tests.conftest import give_cars, make_person_schema


class TestMembership:
    def test_not_member_initially(self, person_db):
        alice = person_db.create("person", name="alice")
        assert not person_db.is_member(alice, "car_buff")

    def test_becomes_member_at_four_cars(self, person_db):
        alice = person_db.create("person", name="alice")
        give_cars(person_db, alice, 4)
        assert person_db.is_member(alice, "car_buff")
        assert "car_buff" in person_db.view(alice).active_subtypes

    def test_three_cars_is_not_enough(self, person_db):
        alice = person_db.create("person", name="alice")
        give_cars(person_db, alice, 3)
        assert not person_db.is_member(alice, "car_buff")

    def test_membership_lapses_when_cars_sold(self, person_db):
        alice = person_db.create("person", name="alice")
        cars = give_cars(person_db, alice, 4)
        assert person_db.is_member(alice, "car_buff")
        person_db.disconnect(cars[0], "owner", alice, "cars")
        assert not person_db.is_member(alice, "car_buff")

    def test_subtype_attribute_available_to_members(self, person_db):
        alice = person_db.create("person", name="alice")
        give_cars(person_db, alice, 4)
        assert person_db.get_attr(alice, "club") == "road&track"

    def test_subtype_attribute_unavailable_to_nonmembers(self, person_db):
        from repro.errors import UnknownAttributeError

        bob = person_db.create("person", name="bob")
        with pytest.raises(UnknownAttributeError):
            person_db.get_attr(bob, "club")

    def test_subtype_attr_value_persists_across_flips(self, person_db):
        alice = person_db.create("person", name="alice")
        cars = give_cars(person_db, alice, 4)
        person_db.set_attr(alice, "club", "cannonball")
        # Flip membership off and back on.
        person_db.disconnect(cars[0], "owner", alice, "cars")
        assert not person_db.is_member(alice, "car_buff")
        person_db.connect(cars[0], "owner", alice, "cars")
        assert person_db.is_member(alice, "car_buff")
        assert person_db.get_attr(alice, "club") == "cannonball"

    def test_instances_of_predicate_subtype(self, person_db):
        alice = person_db.create("person", name="alice")
        bob = person_db.create("person", name="bob")
        give_cars(person_db, alice, 5)
        give_cars(person_db, bob, 1)
        assert person_db.instances_of("car_buff") == [alice]

    def test_instances_of_supertype_includes_everyone(self, person_db):
        alice = person_db.create("person", name="alice")
        bob = person_db.create("person", name="bob")
        give_cars(person_db, alice, 5)
        assert person_db.instances_of("person") == [alice, bob]

    def test_automobiles_never_car_buffs(self, person_db):
        car = person_db.create("automobile", model="gt")
        assert not person_db.is_member(car, "car_buff")

    def test_is_member_static_classes(self, person_db):
        alice = person_db.create("person", name="alice")
        assert person_db.is_member(alice, "person")
        assert not person_db.is_member(alice, "automobile")


class TestDynamicUpdates:
    def test_membership_tracks_without_queries(self, person_db):
        """Membership is maintained eagerly (important slots), so the
        active_subtypes set is current even before any is_member call."""
        alice = person_db.create("person", name="alice")
        give_cars(person_db, alice, 4)
        # No is_member query yet; the flip happened during propagation.
        assert "car_buff" in person_db.instance(alice).active_subtypes

    def test_car_count_derived(self, person_db):
        alice = person_db.create("person", name="alice")
        give_cars(person_db, alice, 2)
        assert person_db.get_attr(alice, "car_count") == 2

    def test_flips_are_undone_with_their_cause(self, person_db):
        alice = person_db.create("person", name="alice")
        give_cars(person_db, alice, 3)
        person_db.begin()
        give_cars(person_db, alice, 1)
        person_db.commit()
        assert person_db.is_member(alice, "car_buff")
        person_db.undo()  # undoes the fourth car
        assert not person_db.is_member(alice, "car_buff")


class TestCopyOnWriteMembership:
    """A membership set is immutable: a flip replaces it, so instances
    never share a set that one of them could change, and every instance
    outside all predicate subtypes holds the one ``NO_SUBTYPES``."""

    def test_two_instances_flip_independently(self, person_db):
        alice = person_db.create("person", name="alice")
        bob = person_db.create("person", name="bob")
        assert person_db.instance(alice).active_subtypes is NO_SUBTYPES
        assert person_db.instance(bob).active_subtypes is NO_SUBTYPES
        give_cars(person_db, alice, 4)
        alices = person_db.instance(alice).active_subtypes
        assert alices == {"car_buff"}
        assert person_db.instance(bob).active_subtypes is NO_SUBTYPES
        bob_cars = give_cars(person_db, bob, 4)
        bobs = person_db.instance(bob).active_subtypes
        assert bobs == {"car_buff"} and bobs is not alices
        person_db.disconnect(bob_cars[0], "owner", bob, "cars")
        assert person_db.instance(bob).active_subtypes is NO_SUBTYPES
        assert person_db.instance(alice).active_subtypes is alices == {"car_buff"}
        assert person_db.instances_of("car_buff") == [alice]

    def test_undo_of_a_flip_restores_membership(self, person_db):
        alice = person_db.create("person", name="alice")
        cars = give_cars(person_db, alice, 3)
        fourth = person_db.create("automobile", model="gt")
        person_db.connect(fourth, "owner", alice, "cars")
        assert person_db.instance(alice).active_subtypes == {"car_buff"}
        person_db.undo()  # the flip in
        assert person_db.instance(alice).active_subtypes is NO_SUBTYPES
        person_db.connect(fourth, "owner", alice, "cars")
        person_db.disconnect(cars[0], "owner", alice, "cars")
        assert person_db.instance(alice).active_subtypes is NO_SUBTYPES
        person_db.undo()  # the flip out
        assert person_db.instance(alice).active_subtypes == {"car_buff"}
        assert person_db.is_member(alice, "car_buff")

    def test_delete_and_undo_of_a_member(self, person_db):
        alice = person_db.create("person", name="alice")
        bob = person_db.create("person", name="bob")
        give_cars(person_db, alice, 5)
        person_db.delete(alice)
        person_db.undo()
        assert person_db.instance(alice).active_subtypes == {"car_buff"}
        assert person_db.is_member(alice, "car_buff")
        assert person_db.get_attr(alice, "car_count") == 5
        person_db.delete(bob)
        person_db.undo()
        assert person_db.instance(bob).active_subtypes is NO_SUBTYPES
        assert person_db.instances_of("car_buff") == [alice]

    def test_checkpoint_round_trip(self, tmp_path):
        path = str(tmp_path / "db")
        db = Database.open(path, make_person_schema(), sync=False)
        people = [db.create("person", name=f"p{i}") for i in range(4)]
        for person, cars in zip(people, (5, 0, 4, 2)):
            give_cars(db, person, cars)
        expected = {p: db.instance(p).active_subtypes for p in people}
        db.checkpoint()
        db.close()
        reopened = Database.open(path, make_person_schema(), sync=False)
        for person in people:
            assert reopened.instance(person).active_subtypes == expected[person]
        cars = [iid for iid in reopened.instance_ids() if iid not in people]
        for iid in [people[1], people[3], *cars]:
            assert reopened.instance(iid).active_subtypes is NO_SUBTYPES
        assert reopened.instances_of("car_buff") == [people[0], people[2]]
        reopened.close()
