"""The engine against a minimal synthetic host.

Validates the :class:`~repro.evaluation.host.EvaluationHost` contract
independently of the full database: a host with one hand-built
:class:`~repro.compile.slotplan.SlotPlan` of three slots (one intrinsic,
two derived) drives marking, demand, collection, and the constraint
callback exactly as documented.  Everything the engine knows about rules,
dependents, and bindings comes from that plan.
"""

import pytest

from repro.compile.slotplan import _B_LOCAL, ATTR, CONSTRAINT, PLAIN, RuleExec, SlotPlan
from repro.core.rules import AttributeTarget, Local, Rule
from repro.errors import ConstraintViolation
from repro.evaluation.engine import IncrementalEngine
from repro.evaluation.host import EvaluationHost
from repro.storage.manager import StorageManager


def build_plan(derived) -> SlotPlan:
    """A plan over ``x`` (intrinsic) plus ``(name, input, body, special)``
    derived slots, each reading one local attribute."""
    plan = SlotPlan()
    plan.names = ["x"] + [name for name, *__ in derived]
    plan.index = {name: sid for sid, name in enumerate(plan.names)}
    size = len(plan.names)
    plan.rules = [None] * size
    plan.execs = [None] * size
    plan.special = [PLAIN] * size
    plan.kind = [ATTR] * size
    plan.port_of = [None] * size
    plan.value_of = [None] * size
    plan.binding_specs = [None] * size
    dependents = [[] for __ in range(size)]
    for name, source, body, special in derived:
        sid = plan.index[name]
        plan.rules[sid] = Rule(AttributeTarget(name), {source: Local(source)}, body)
        plan.execs[sid] = RuleExec(body, False, special)
        plan.special[sid] = special
        plan.binding_specs[sid] = ((_B_LOCAL, source, source, None, False, None, None),)
        dependents[plan.index[source]].append(sid)
    plan.local_dependents = [tuple(sids) for sids in dependents]
    return plan


CHAIN = [
    ("d", "x", lambda x: x * 2, PLAIN),
    ("q", "d", lambda d: d + 1, PLAIN),
]


class SyntheticHost:
    """Three slots on one instance: x (intrinsic) -> d -> q."""

    def __init__(self, derived=CHAIN) -> None:
        self.plan = build_plan(derived)
        self.slot_plans = self  # plan_of / instance_of below
        self.storage = StorageManager(block_capacity=256, pool_capacity=4)
        self.usage = self.storage.usage
        self.values = {(1, "x"): 10}
        self.storage.place(1, 64)
        self.constraint_results = []

    def plan_of(self, iid):
        return self.plan if iid == 1 else None

    def instance_of(self, iid):
        return None  # no ports: bindings never consult connections

    def read_slot_value(self, slot):
        return self.values[slot]

    def write_slot_value(self, slot, value):
        self.values[slot] = value

    def has_slot_value(self, slot):
        return slot in self.values

    def handle_constraint_result(self, slot, holds):
        self.constraint_results.append((slot, holds))
        if not holds:
            raise ConstraintViolation("synthetic", slot[0])

    def handle_subtype_result(self, slot, member):
        raise AssertionError("no subtype slots in this host")


class TestContract:
    def test_demand_pulls_the_chain(self):
        host = SyntheticHost()
        assert isinstance(host, EvaluationHost)
        engine = IncrementalEngine(host)
        assert engine.demand((1, "q")) == 21
        assert host.values[(1, "d")] == 20

    def test_marking_then_lazy_recompute(self):
        host = SyntheticHost()
        engine = IncrementalEngine(host)
        engine.demand((1, "q"))
        host.values[(1, "x")] = 100
        engine.propagate_intrinsic_change((1, "x"))
        assert engine.is_out_of_date((1, "d"))
        assert engine.is_out_of_date((1, "q"))
        assert host.values[(1, "d")] == 20  # unchanged until demanded
        assert engine.demand((1, "q")) == 201
        assert not engine.is_out_of_date((1, "d"))

    def test_each_slot_evaluated_once_per_wave(self):
        host = SyntheticHost()
        engine = IncrementalEngine(host)
        engine.demand((1, "q"))
        host.values[(1, "x")] = 3
        engine.propagate_intrinsic_change((1, "x"))
        before = engine.counters.snapshot()
        engine.demand((1, "q"))
        assert engine.counters.delta_since(before).rule_evaluations == 2

    def test_constraint_callback_invoked(self):
        host = SyntheticHost(
            CHAIN + [("__constraint__cap", "d", lambda d: d < 1000, CONSTRAINT)]
        )
        engine = IncrementalEngine(host)
        assert engine.demand((1, "__constraint__cap")) is True
        assert host.constraint_results == [((1, "__constraint__cap"), True)]
        host.values[(1, "x")] = 10_000
        with pytest.raises(ConstraintViolation):
            engine.propagate_intrinsic_change((1, "x"))

    def test_standing_demand_is_important(self):
        host = SyntheticHost()
        engine = IncrementalEngine(host)
        engine.demand((1, "q"))
        engine.register_demand((1, "q"))
        host.values[(1, "x")] = 4
        engine.propagate_intrinsic_change((1, "x"))
        # The watched slot was evaluated during the wave.
        assert host.values[(1, "q")] == 9
        assert not engine.is_out_of_date((1, "q"))
