"""Deleting an instance forgets its usage statistics in O(its own ports).

Every usage-statistics key is an ``(instance, port)`` pair, so the keys
that can name a deleted instance are its own ports -- every port its class
or any predicate subtype it may have joined declares -- plus the peer ends
of its former connections.  A delete must probe exactly those, however
many unrelated relationships the database tracks, and must leave none of
them behind.
"""

from collections import Counter

from repro.core.database import Database
from repro.core.rules import subtype_attr_name
from repro.dsl import compile_schema

SOURCE = """
relationship link is
    v : integer from plug;
end relationship;

object class node is
  relationships
    out : link multi plug;
    inp : link multi socket;
  attributes
    w : integer;
  rules
    out v = w;
end object;

object class hub subtype of node where w > 5 is
  relationships
    extra : link multi plug;
  attributes
    tag : boolean;
  rules
    tag = true;
end object;
"""


def _probed(mapping, tally: Counter):
    """A copy of ``mapping`` that counts every key it visits or looks up."""

    class Probed(type(mapping)):
        def __iter__(self):
            for key in super().__iter__():
                tally["probes"] += 1
                yield key

        def __contains__(self, key):
            tally["probes"] += 1
            return super().__contains__(key)

        def get(self, key, default=None):
            tally["probes"] += 1
            return super().get(key, default)

        def pop(self, key, *default):
            tally["probes"] += 1
            return super().pop(key, *default)

        def __delitem__(self, key):
            tally["probes"] += 1
            super().__delitem__(key)

    return Probed(mapping)


def _delete_with(unrelated: int) -> tuple[int, Database, int, int]:
    """Delete a former ``hub`` among ``unrelated`` foreign relationships."""
    db = Database(compile_schema(SOURCE))
    a = db.create("node", w=10)
    b = db.create("node", w=1)
    assert db.get_attr(a, subtype_attr_name("hub")) is True
    db.connect(a, "out", b, "inp")
    usage = db.usage
    for port in ("out", "extra"):
        usage.note_crossing(a, port)
        usage.observe_io(a, port, 1.0)
        usage.set_worst_case(a, port, 2.0)
    usage.note_crossing(b, "inp")
    db.set_attr(a, "w", 1)  # leaves hub: "extra" is no longer a port of a's plan
    assert "extra" not in db._plan(a).ports
    for other in range(10_000, 10_000 + unrelated):
        usage.note_crossing(other, "out")
        usage.observe_io(other, "out", 1.0)
        usage.set_worst_case(other, "out", 1.0)
    tally: Counter = Counter()
    usage.relationship_crossings = _probed(usage.relationship_crossings, tally)
    usage._averages = _probed(usage._averages, tally)
    usage.worst_case = _probed(usage.worst_case, tally)
    db.delete(a)
    return tally["probes"], db, a, b


def test_delete_probes_do_not_depend_on_unrelated_relationships():
    few, *__ = _delete_with(10)
    many, *__ = _delete_with(1_000)
    assert few == many


def test_no_key_naming_the_deleted_instance_survives():
    __, db, a, b = _delete_with(10)
    usage = db.usage
    for mapping in (usage.relationship_crossings, usage._averages, usage.worst_case):
        assert not [key for key in mapping if key[0] == a], mapping
    assert (b, "inp") not in usage.relationship_crossings  # the peer's ghost
    assert usage.crossing_count(10_000, "out") == 1  # unrelated keys stay
