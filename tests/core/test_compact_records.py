"""Per-object records are compact: slots, and one shared empty membership set.

The database keeps one :class:`Instance` per object, one
:class:`Connection` per connection end, one log record per primitive in the
undo history, one ``DecayingAverage`` per observed ``(iid, port)`` and one
TO ``_Marks`` per touched instance.  None of them carries a per-object
attribute dict, and an instance outside every predicate subtype holds the
shared :data:`NO_SUBTYPES` constant rather than a private empty set.

The memory guard loads the served workloads' graph shape
(:func:`~repro.workloads.load_sum_forest`, software projects of 200 sum
nodes) under ``tracemalloc`` and bounds what the load leaves behind per
instance.  The budget sits between the two measurements it was set from,
both at 25 projects (5 000 instances) on CPython 3.11: 2 112 B/instance
with a private ``set()`` per instance and dict-backed records, 1 674
B/instance compact (``tools/mem_report.py`` prints the census by
allocation site).  Other interpreter versions lay objects out differently;
measured against the budget: CPython 3.10.13 -> 1 832, 3.11.7 -> 1 674 and
3.12.1 -> 1 673 B/instance, so 3.10 passes with only 18 B to spare.
"""

import gc
import tracemalloc
import typing

import pytest

from repro.core.database import Database
from repro.core.instance import NO_SUBTYPES, Connection, Instance
from repro.storage.codec import load_database, save_database
from repro.storage.usage import DecayingAverage
from repro.txn.log import Delta, LogRecord
from repro.txn.timestamps import _Marks
from repro.workloads import build_chain, load_sum_forest, sum_node_schema

#: traced bytes per loaded instance, undo history included.
BYTES_PER_INSTANCE_BUDGET = 1_850

#: one object per instance, connection end, log record or ``(iid, port)``.
AUDITED = (Instance, Connection, *typing.get_args(LogRecord), Delta, DecayingAverage, _Marks)


def test_loaded_instances_fit_the_budget():
    sum_node_schema()  # first-use imports stay out of the measurement
    gc.collect()
    tracemalloc.start()
    try:
        db = load_sum_forest(25)
        gc.collect()
        traced, __ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(db) == 5_000
    assert traced / len(db) < BYTES_PER_INSTANCE_BUDGET, traced / len(db)


@pytest.mark.parametrize("cls", AUDITED, ids=lambda cls: cls.__name__)
def test_audited_class_has_slots_and_no_instance_dict(cls):
    assert "__slots__" in vars(cls)
    assert cls.__dictoffset__ == 0  # no per-object attribute dict


def test_log_records_built_by_primitives_have_no_dict():
    db = Database(sum_node_schema())
    with db.transaction():
        a, b = build_chain(db, 2)
        db.set_attr(a, "weight", 3)
        db.disconnect(b, "inputs", a, "outputs")
        db.delete(b)
    delta = db.txn.history[-1]
    kinds = {type(record).__name__ for record in delta.records}
    assert kinds == {cls.__name__ for cls in typing.get_args(LogRecord)}
    assert not any(hasattr(obj, "__dict__") for obj in (delta, *delta.records))


def _never_flipped(db):
    return [db.instance(iid) for iid in db.instance_ids()]


def test_never_flipped_instances_share_the_empty_set(tmp_path):
    db = Database(sum_node_schema())
    build_chain(db, 5)
    assert all(i.active_subtypes is NO_SUBTYPES for i in _never_flipped(db))

    save_database(db, str(tmp_path / "image"))
    loaded, __ = load_database(str(tmp_path / "image"), sum_node_schema())
    assert all(i.active_subtypes is NO_SUBTYPES for i in _never_flipped(loaded))

    durable = Database.open(str(tmp_path / "db"), sum_node_schema(), sync=False)
    build_chain(durable, 5)
    durable.checkpoint()
    build_chain(durable, 3)  # reaches the reopen through the WAL
    durable.close()
    reopened = Database.open(str(tmp_path / "db"), sum_node_schema(), sync=False)
    assert len(reopened) == 8
    assert all(i.active_subtypes is NO_SUBTYPES for i in _never_flipped(reopened))
    reopened.close()


def test_undo_of_delete_restores_the_shared_empty_set():
    db = Database(sum_node_schema())
    a, b = build_chain(db, 2)
    db.delete(b)
    db.undo()
    assert db.instance(b).active_subtypes is NO_SUBTYPES
