"""Dynamic predicate-subtype membership.

"It is possible to use values such as the very_late attribute ... to change
subtype membership of an object dynamically.  Thus we can add new attributes
and hence new functionality to particular objects dynamically based on their
properties -- again without disturbing existing tools."

Membership of a predicate subtype is itself a derived boolean attribute (see
:func:`repro.core.rules.subtype_attr_name`), evaluated by the ordinary
incremental machinery.  When it flips, :class:`SubtypeManager` attaches or
detaches the subtype's *delta structure* -- the attributes, rules, and
constraints the subtype adds beyond what the instance already has:

* on **attach**: missing intrinsic attributes are initialised to their
  defaults, new constraint slots join the unchecked set, and every slot the
  subtype adds or *overrides* is invalidated so it computes under the new
  rule;
* on **detach**: the delta slots are forgotten and overridden slots are
  invalidated back to the supertype's rules.  Stored values of the
  subtype's intrinsic attributes persist in the record, so a re-attach
  finds them again (membership controls behaviour and visibility, not raw
  storage).

Either way the flip itself is "change membership, drop the instance's plan
memo": rules, dependency edges and attribute defs all follow from the slot
plan of the new shape.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.core.instance import NO_SUBTYPES
from repro.core.rules import Rule, constraint_attr_name
from repro.core.slots import attr_slot

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.database import Database


class SubtypeManager:
    """Applies predicate-subtype membership flips to instance structure."""

    def __init__(self, db: "Database") -> None:
        self.db = db

    # -- structure deltas -----------------------------------------------------

    def delta_rules(self, base_class: str, subtype: str) -> list[Rule]:
        """Rules the subtype adds or overrides relative to the base class."""
        base = self.db.schema.resolved(base_class)
        sub = self.db.schema.resolved(subtype)
        return [
            rule
            for slot_name, rule in sub.rule_for.items()
            if base.rule_for.get(slot_name) is not rule
        ]

    # -- flips ------------------------------------------------------------

    def attach(self, iid: int, subtype: str) -> None:
        """Make ``iid`` a member of ``subtype`` and install its structure."""
        instance = self.db.instance(iid)
        if subtype in instance.active_subtypes:
            return
        instance.active_subtypes = instance.active_subtypes | {subtype}
        self.db.indexes.note_attach(iid, subtype)
        self.db.slot_plans.invalidate_instance(iid)
        base_class = instance.class_name
        sub_view = self.db.schema.resolved(subtype)
        # Initialise intrinsic attributes the subtype adds (values persist
        # across detach/attach, so only missing ones are seeded).
        for attr in sub_view.attributes.values():
            if attr.intrinsic and attr.name not in instance.attrs:
                instance.attrs[attr.name] = self.db.default_for_attr(attr)
        # New constraints must be checked before the transaction commits.
        base_constraints = {c.name for c in self.db.schema.resolved(base_class).constraints}
        for constraint in sub_view.constraints:
            if constraint.name not in base_constraints:
                self.db.note_unchecked_constraint(
                    attr_slot(iid, constraint_attr_name(constraint.name))
                )
        self.db.storage.resize(iid, instance.record_size())
        # Slots the subtype adds or overrides compute under its rules.
        invalidate = [
            (iid, rule.slot_name) for rule in self.delta_rules(base_class, subtype)
        ]
        if invalidate:
            self.db.engine.invalidate_derived(invalidate)

    def detach(self, iid: int, subtype: str) -> None:
        """Remove ``iid`` from ``subtype`` and tear down its delta structure."""
        instance = self.db.instance(iid)
        if subtype not in instance.active_subtypes:
            return
        instance.active_subtypes = instance.active_subtypes - {subtype} or NO_SUBTYPES
        self.db.indexes.note_detach(iid, subtype)
        self.db.slot_plans.invalidate_instance(iid)
        base_rules = self.db.schema.resolved(instance.class_name).rule_for
        # Slots the subtype had overridden fall back to the base rules and
        # must recompute.
        invalidate = []
        for rule in self.delta_rules(instance.class_name, subtype):
            slot = (iid, rule.slot_name)
            self.db.engine.forget_slot(slot)
            self.db.forget_unchecked_constraint(slot)
            if rule.slot_name in base_rules:
                invalidate.append(slot)
        if invalidate:
            self.db.engine.invalidate_derived(invalidate)
