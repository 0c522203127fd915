"""The generated query reader against the hand-written loop it replaced.

``Database.read_inputs`` runs one reader generated per input signature: a
candidate whose ``Local`` slots are all clean is read in place, with the
one-frame buffer hit inline, and any other candidate takes one slow step.
:func:`tests.references.reference_read_inputs` is the per-candidate, per-input
loop, touching records through ``BufferPool.fetch``.  Over a milestone DAG
with random stale and never-evaluated slots, a subtype that flips as its
inputs are evaluated, a pool small enough to miss and evict, and reads
inside and outside a batch transaction, the two must agree on the answer
and on every side effect: engine demands and rule evaluations, the
out-of-date marks left behind, buffer hits, misses and evictions, the
per-iid access counts (a candidate touched twice or not at all differs
here) and the pool's LRU frame order.
"""

from __future__ import annotations

import random
from contextlib import nullcontext

import pytest

from repro.core.database import Database
from repro.core.rules import Local, Received, SelfRef, subtype_attr_name
from repro.dsl import compile_schema
from repro.env.milestones import MILESTONE_SCHEMA, VERY_LATE_EXTENSION
from repro.errors import CactisError
from tests.references import reference_read_inputs

N = 48
SEEDS = range(6)

#: (input declarations, body or None, limit)
CASES = {
    "local_pair_limit": (
        (Local("late"), Local("local_work")),
        lambda late, work: late and work > 3,
        5,
    ),
    "local_pair": ((Local("late"), Local("local_work")), lambda late, work: late, None),
    "order_keys": ((Local("exp_compl"),), None, None),
    "local_and_self": (
        (Local("exp_compl"), SelfRef()),
        lambda exp, iid: exp > 30 or iid % 5 == 0,
        None,
    ),
    "received": (
        (Local("local_work"), Received("depends_on", "exp_time")),
        lambda work, times: len(times) > 1 and work > 2,
        4,
    ),
    "received_rows": ((Received("depends_on", "exp_time"), Local("late")), None, None),
    "self_only": ((SelfRef(),), None, None),
    "zero_inputs_true": ((), lambda: True, 7),
    "zero_inputs_false": ((), lambda: 0, None),
    "membership_slot": (
        (Local(subtype_attr_name("very_late_milestone")), Local("sched_compl")),
        lambda member, sched: member,
        None,
    ),
    "unreadable_name": ((Local("local_work"), Local("very_late")), None, None),
}


def build(seed: int) -> tuple[Database, list[int]]:
    """A milestone DAG over small blocks and a 3-frame pool, partly demanded,
    then partly dirtied; returns it with a candidate order."""
    rng = random.Random(seed)
    schema = compile_schema(MILESTONE_SCHEMA + VERY_LATE_EXTENSION.format(limit=10))
    db = Database(schema, block_capacity=640, pool_capacity=3)
    for __ in range(N):
        iid = db.create(
            "milestone", sched_compl=rng.randrange(0, 60), local_work=rng.randrange(1, 9)
        )
        for parent in rng.sample(range(1, iid), min(iid - 1, rng.randrange(0, 3))):
            db.connect(iid, "depends_on", parent, "consists_of")
    for iid in rng.sample(db.instance_ids(), N // 2):
        db.get_attr(iid, rng.choice(("late", "exp_compl")))
    candidates = db.instance_ids()
    if seed % 2:
        rng.shuffle(candidates)
    return db, candidates


def dirty(db: Database, rng: random.Random) -> None:
    for iid in rng.sample(db.instance_ids(), 6):
        db.set_attr(iid, "local_work", rng.randrange(1, 20))


def observe(db: Database) -> dict:
    engine, storage = db.engine, db.storage
    stats = storage.buffer.stats
    return {
        "demands": engine.counters.demands,
        "rule_evaluations": engine.counters.rule_evaluations,
        "marks": set(engine.out_of_date),
        "hits": stats.hits,
        "misses": stats.misses,
        "evictions": stats.evictions,
        "accesses": dict(storage.usage.instance_accesses),
        "lru": storage.buffer.resident_blocks(),
    }


class _Done(Exception):
    """Leaves the batch without committing, so both sides stop at the read."""


def run(read, seed: int, case: str, batch: bool):
    inputs, body, limit = CASES[case]
    db, candidates = build(seed)
    rng = random.Random(seed + 100)
    db.storage.buffer.clear()
    scope = db.transaction(batch=True) if batch else nullcontext()
    try:
        with scope:
            dirty(db, rng)
            before = observe(db)
            try:
                outcome = read(db, candidates, inputs, body, limit)
            except CactisError as exc:  # the same error, raised at the same point
                outcome = (type(exc).__name__, str(exc))
            after = observe(db)
            raise _Done
    except _Done:
        pass
    return outcome, before, after


@pytest.mark.parametrize("batch", [False, True], ids=["direct", "batch"])
@pytest.mark.parametrize("case", sorted(CASES))
@pytest.mark.parametrize("seed", SEEDS)
def test_generated_reader_matches_the_reference_loop(seed, case, batch):
    got, before, after = run(Database.read_inputs, seed, case, batch)
    want, ref_before, ref_after = run(reference_read_inputs, seed, case, batch)
    assert before == ref_before  # same starting state
    assert got == want
    assert after == ref_after


def test_the_cases_cover_the_fast_path_the_slow_step_and_the_pool():
    """The workload above reaches what the differential test is for."""
    outcomes = {}
    for case in ("local_pair", "received", "unreadable_name"):
        outcomes[case] = run(Database.read_inputs, 1, case, False)
    __, before, after = outcomes["local_pair"]
    assert after["rule_evaluations"] > before["rule_evaluations"]  # stale slots read
    assert after["misses"] > before["misses"] and after["evictions"] > before["evictions"]
    assert after["hits"] - before["hits"] > N // 2  # one-frame hits
    assert outcomes["unreadable_name"][0][0] == "UnknownAttributeError"
    assert outcomes["received"][0]  # some candidates match
