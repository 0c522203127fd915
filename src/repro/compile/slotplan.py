"""Flattened per-class slot plans: the structure the engine traverses.

The incremental evaluator's unit of work is the slot ``(iid, name)``.
Everything the engine needs to know about a slot -- does it carry a rule,
which slots depend on it, which port a name crosses -- is resolved by a
:class:`SlotPlan` once per *instance shape* (class + active predicate
subtypes) instead of through string-keyed lookups and name re-parsing per
visit.  The plan is also the only place a shape's structure lives: the
effective rule map, attribute defs and port defs the primitives validate
against are plan fields, and the dependency graph
(:class:`repro.graph.depgraph.DependencyView`) is read off the plan and the
live connection table, never stored:

* every slot name of the shape gets a dense integer id (``sid``);
* per-sid arrays carry the rule, the compiled executor, the special role
  (constraint / subtype membership), the slot kind, and -- for transmit
  slots -- the pre-split port and value names (satellite of ISSUE 6: no
  ``str.partition`` inside a wave);
* the *local* dependency edges (attribute -> dependent rule targets within
  one instance) are index arrays, ``sid -> tuple of dependent sids``;
* the *port-crossing* edges are a ``(receive_port, value) -> tuple of
  consumer sids`` table; the producer walks its live connections and joins
  against the peer shape's table, which also yields the crossing port;
* per-sid binding specs rebuild the engine's ``DepBinding`` list from the
  live connection table without consulting the rule map;
* ``port_receives`` lists, per receive port, the ``(value, consumer
  name)`` pairs a connection on that port feeds, in rule-declaration order
  -- the derived seeds of a connect / disconnect.

Plans are immutable and shared: the :class:`SlotPlanCache` keyed on the
effective-shape key hands the same plan to every instance of a shape, with
a per-iid memo in front.  Membership flips and deletions invalidate the
memo entry (the shape key changes); schema extension clears everything.
"""

from __future__ import annotations

from typing import Any

from repro.compile.codegen import CompiledBody
from repro.core.rules import (
    Local,
    Received,
    Rule,
    SelfRef,
    is_constraint_attr,
    is_subtype_attr,
)
from repro.core.slots import is_transmit_name, split_transmit_name, transmit_name
from repro.evaluation.host import DepBinding

# special roles (plan.special)
PLAIN = 0
CONSTRAINT = 1
SUBTYPE = 2

# slot kinds (plan.kind)
ATTR = 0
TRANSMIT = 1

# binding-spec tags
_B_LOCAL = 0
_B_RECEIVED = 1
_B_SELF = 2


class RuleExec:
    """How to invoke one slot's rule body from the engine's inner loop."""

    __slots__ = ("fn", "positional", "special")

    def __init__(self, fn: Any, positional: bool, special: int) -> None:
        self.fn = fn
        self.positional = positional
        self.special = special


class SlotPlan:
    """The flattened structure of one instance shape.  Immutable once built."""

    __slots__ = (
        "class_name",
        "names",
        "index",
        "rules",
        "execs",
        "special",
        "kind",
        "port_of",
        "value_of",
        "local_dependents",
        "receivers",
        "binding_specs",
        "flow_defaults",
        "rule_for",
        "attributes",
        "ports",
        "constraints",
        "port_receives",
    )

    def __init__(self) -> None:
        self.class_name: str = ""
        #: sid -> slot name (the only translation back to string space).
        self.names: list[str] = []
        #: slot name -> sid.
        self.index: dict[str, int] = {}
        #: sid -> Rule or None (intrinsic slots carry no rule).
        self.rules: list[Rule | None] = []
        #: sid -> RuleExec or None.
        self.execs: list[RuleExec | None] = []
        #: sid -> PLAIN | CONSTRAINT | SUBTYPE.
        self.special: list[int] = []
        #: sid -> ATTR | TRANSMIT.
        self.kind: list[int] = []
        #: sid -> port name for TRANSMIT slots, else None (pre-split).
        self.port_of: list[str | None] = []
        #: sid -> value name for TRANSMIT slots, else None (pre-split).
        self.value_of: list[str | None] = []
        #: sid -> dependent sids within the same instance.
        self.local_dependents: list[tuple[int, ...]] = []
        #: (receive_port, value) -> consumer sids; joined from the peer side.
        self.receivers: dict[tuple[str, str], tuple[int, ...]] = {}
        #: sid -> binding spec tuples in rule-input order (None if no rule).
        self.binding_specs: list[tuple | None] = []
        #: transmit name -> dummy-instance default for every flow of every
        #: port, so a dangling read never re-parses the name.
        self.flow_defaults: dict[str, Any] = {}
        #: slot name -> Rule in declaration order (class rules, then each
        #: active subtype's additions and overrides).
        self.rule_for: dict[str, Rule] = {}
        #: attribute name -> AttributeDef, class plus active subtypes.
        self.attributes: dict[str, Any] = {}
        #: port name -> PortDef, class plus active subtypes.
        self.ports: dict[str, Any] = {}
        #: names of the constraint slots, in declaration order.
        self.constraints: tuple[str, ...] = ()
        #: receive port -> (value, consumer slot name) per received input,
        #: in declaration order, repeats kept.
        self.port_receives: dict[str, tuple[tuple[str, str], ...]] = {}

    def resolve_bindings(self, sid: int, iid: int, instance: Any) -> list[DepBinding]:
        """The engine's DepBinding list for one slot, from live connections."""
        out: list[DepBinding] = []
        for tag, kw, name, value, multi, default, name_cache in self.binding_specs[sid]:
            if tag == _B_LOCAL:
                out.append(DepBinding(kw=kw, slots=[(iid, name)]))
            elif tag == _B_RECEIVED:
                slots = []
                for conn in instance.connections_on(name):
                    slot_name = name_cache.get(conn.peer_port)
                    if slot_name is None:
                        slot_name = transmit_name(conn.peer_port, value)
                        name_cache[conn.peer_port] = slot_name
                    slots.append((conn.peer, slot_name))
                out.append(
                    DepBinding(
                        kw=kw, slots=slots, port=name, multi=multi, default=default
                    )
                )
            else:
                out.append(DepBinding(kw=kw, self_ref=True))
        return out

    def dependents(self, iid: int, name: str, plans: "SlotPlanCache") -> list:
        """Slots whose rules read ``(iid, name)``: one entry per edge.

        The same edges, in the same order, as the engine's marking
        fan-out: local dependents, then per live connection the peer
        shape's receivers of this value.  Two ports of one consumer wired
        to the same producer port are two edges.
        """
        sid = self.index.get(name)
        if sid is not None:
            names = self.names
            out = [(iid, names[dsid]) for dsid in self.local_dependents[sid]]
            port, value = self.port_of[sid], self.value_of[sid]
        elif is_transmit_name(name):  # a flow this shape sends but never computes
            out = []
            port, value = split_transmit_name(name)
        else:
            return []
        if port is not None:
            for conn in plans.instance_of(iid).connections_on(port):
                peer_plan = plans.plan_of(conn.peer)
                for tsid in peer_plan.receivers.get((conn.peer_port, value), ()):
                    out.append((conn.peer, peer_plan.names[tsid]))
        return out

    def dependencies(self, iid: int, name: str, instance: Any) -> list:
        """Slots ``(iid, name)``'s rule reads: the transpose of :meth:`dependents`."""
        sid = self.index.get(name)
        specs = self.binding_specs[sid] if sid is not None else None
        out: list = []
        seen: set = set()
        for spec in specs or ():
            tag, source, value = spec[0], spec[2], spec[3]
            if tag == _B_SELF or (source, value) in seen:
                continue
            seen.add((source, value))
            if tag == _B_LOCAL:
                out.append((iid, source))
            else:
                for conn in instance.connections_on(source):
                    out.append((conn.peer, transmit_name(conn.peer_port, value)))
        return out


def build_slot_plan(db: Any, instance: Any) -> SlotPlan:
    """Flatten one instance shape: the one builder of its structure."""
    plan = SlotPlan()
    plan.class_name = instance.class_name
    schema = db.schema
    base = schema.resolved(instance.class_name)
    rulemap = dict(base.rule_for)
    attrmap = plan.attributes = dict(base.attributes)
    ports = plan.ports = dict(base.ports)
    for subtype in sorted(instance.active_subtypes):
        for rule in db.subtypes.delta_rules(instance.class_name, subtype):
            rulemap[rule.slot_name] = rule
        view = schema.resolved(subtype)
        attrmap.update(view.attributes)
        ports.update(view.ports)
    plan.rule_for = rulemap
    plan.constraints = tuple(n for n in rulemap if is_constraint_attr(n))
    port_receives: dict[str, list[tuple[str, str]]] = {}
    for name, rule in rulemap.items():
        for __, inp in rule.received_inputs():
            port_receives.setdefault(inp.port, []).append((inp.value, name))
    plan.port_receives = {p: tuple(v) for p, v in port_receives.items()}
    # Static cost ordering: when the freeze-time analysis produced a cost
    # model, order ruled slots by descending op count (stable on the
    # rulemap order).  Sids, edge tuples, and receiver tables all inherit
    # the order, so within a wave the engine marks and collects expensive
    # rules first.  The engine's counters are order-invariant (per-edge
    # counting, evaluate-once).
    facts = getattr(schema, "analysis_facts", None)
    if facts is not None and rulemap:
        cost = facts.cost
        cls = instance.class_name
        declared = {name: pos for pos, name in enumerate(rulemap)}
        rulemap = {
            name: rulemap[name]
            for name in sorted(
                rulemap,
                key=lambda n: (-cost.ops_of(cls, n), declared[n]),
            )
        }
    names = plan.names
    index = plan.index

    def sid_of(name: str) -> int:
        sid = index.get(name)
        if sid is None:
            sid = len(names)
            index[name] = sid
            names.append(name)
        return sid

    # Ruled slots first, then declared attributes, then any attribute a
    # rule reads that is not otherwise declared (synthetic constraint /
    # subtype inputs).
    for name in rulemap:
        sid_of(name)
    for name in attrmap:
        sid_of(name)
    for rule in rulemap.values():
        for __, inp in rule.local_inputs():
            sid_of(inp.attr)

    for port_name, port_def in ports.items():
        rel = schema.relationship_type(port_def.rel_type)
        for flow in rel.flows.values():
            default = flow.default
            if default is None:
                default = schema.atoms.get(flow.atom).default
            plan.flow_defaults[transmit_name(port_name, flow.value)] = default

    for name in names:
        rule = rulemap.get(name)
        plan.rules.append(rule)
        if is_transmit_name(name):
            port, value = split_transmit_name(name)
            plan.kind.append(TRANSMIT)
            plan.port_of.append(port)
            plan.value_of.append(value)
        else:
            plan.kind.append(ATTR)
            plan.port_of.append(None)
            plan.value_of.append(None)
        if is_constraint_attr(name):
            special = CONSTRAINT
        elif is_subtype_attr(name):
            special = SUBTYPE
        else:
            special = PLAIN
        plan.special.append(special)
        if rule is None:
            plan.execs.append(None)
            plan.binding_specs.append(None)
            continue
        body = rule.body
        if isinstance(body, CompiledBody) and body.kwnames == tuple(rule.inputs):
            plan.execs.append(RuleExec(body.fn, True, special))
        else:
            plan.execs.append(RuleExec(body, False, special))
        specs = []
        for kw, inp in rule.inputs.items():
            if isinstance(inp, Local):
                specs.append((_B_LOCAL, kw, inp.attr, None, False, None, None))
            elif isinstance(inp, Received):
                port_def = ports[inp.port]
                flow = schema.relationship_type(port_def.rel_type).flow(inp.value)
                default = flow.default
                if default is None:
                    default = schema.atoms.get(flow.atom).default
                specs.append(
                    (_B_RECEIVED, kw, inp.port, inp.value, port_def.multi, default, {})
                )
            elif isinstance(inp, SelfRef):
                specs.append((_B_SELF, kw, None, None, False, None, None))
            else:  # pragma: no cover - exhaustive over Input
                raise TypeError(f"unknown input declaration {inp!r}")
        plan.binding_specs.append(tuple(specs))

    # Local dependency edges and the receive table: one edge per distinct
    # input of a rule, however many keywords name it.
    local_deps: list[list[int]] = [[] for __ in names]
    receivers: dict[tuple[str, str], list[int]] = {}
    for target_name, rule in rulemap.items():
        tsid = index[target_name]
        seen_attrs: set[str] = set()
        for __, inp in rule.local_inputs():
            if inp.attr in seen_attrs:
                continue
            seen_attrs.add(inp.attr)
            local_deps[index[inp.attr]].append(tsid)
        for __, inp in rule.received_inputs():
            key = (inp.port, inp.value)
            bucket = receivers.setdefault(key, [])
            if tsid not in bucket:
                bucket.append(tsid)
    plan.local_dependents = [tuple(deps) for deps in local_deps]
    plan.receivers = {key: tuple(sids) for key, sids in receivers.items()}
    return plan


class SlotPlanCache:
    """Shape-keyed plan store with a per-instance memo in front.

    The memo must be invalidated whenever an instance's effective shape
    changes (a subtype membership flip, or deletion); schema extension
    clears both layers because every shape key embeds the schema version.
    """

    def __init__(self, db: Any) -> None:
        self._db = db
        self._by_key: dict[tuple, SlotPlan] = {}
        self._by_iid: dict[int, SlotPlan] = {}
        self.plans_built = 0

    def plan_of(self, iid: int) -> SlotPlan | None:
        plan = self._by_iid.get(iid)
        if plan is None:
            instance = self._db._catalog.get(iid)
            if instance is None:
                return None
            key = (
                self._db.schema.version,
                instance.class_name,
                tuple(sorted(instance.active_subtypes)),
            )
            plan = self._by_key.get(key)
            if plan is None:
                plan = build_slot_plan(self._db, instance)
                self._by_key[key] = plan
                self.plans_built += 1
            self._by_iid[iid] = plan
        return plan

    def instance_of(self, iid: int) -> Any:
        return self._db._catalog.get(iid)

    def instance_ids(self) -> list[int]:
        return list(self._db._catalog)

    @property
    def instances_cached(self) -> int:
        return len(self._by_iid)

    def invalidate_instance(self, iid: int) -> None:
        self._by_iid.pop(iid, None)

    def clear(self) -> None:
        self._by_key.clear()
        self._by_iid.clear()
