"""The contract between the evaluation engine and the database.

The incremental engine (:mod:`repro.evaluation.engine`) is deliberately
ignorant of schemas, classes, and ports.  It sees the world through an
:class:`EvaluationHost`: flattened slot plans that carry each slot's rule,
dependents, and *binding* recipe, raw slot-value storage, and callbacks for
the two special slot families (constraints and predicate subtypes).
:class:`repro.core.database.Database` is the production host; tests use
small synthetic hosts.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Protocol, runtime_checkable

from repro.core.slots import Slot
from repro.storage.manager import StorageManager
from repro.storage.usage import UsageStats


@dataclass
class DepBinding:
    """One resolved rule input: where its value(s) come from.

    For a :class:`~repro.core.rules.Local` input, ``slots`` has exactly one
    entry on the same instance and ``port`` is None.  For a
    :class:`~repro.core.rules.Received` input, ``slots`` holds the peers'
    transmit slots in connection order and ``port`` names the consuming
    port; ``multi`` says whether the rule receives the whole list or a
    single value; ``default`` stands in when a single port dangles.  A
    :class:`~repro.core.rules.SelfRef` binding has ``self_ref=True`` and no
    slots.
    """

    kw: str
    slots: list[Slot] = field(default_factory=list)
    port: str | None = None
    multi: bool = False
    default: Any = None
    self_ref: bool = False

    def assemble(self, iid: int, values: dict[Slot, Any]) -> Any:
        """Build the keyword-argument value from collected slot values."""
        if self.self_ref:
            return iid
        if self.port is None:
            return values[self.slots[0]]
        if self.multi:
            return [values[s] for s in self.slots]
        if not self.slots:
            return self.default
        return values[self.slots[0]]


@runtime_checkable
class EvaluationHost(Protocol):
    """What the engine needs from the database.

    Attributes
    ----------
    slot_plans:
        ``plan_of(iid)`` -- the :class:`~repro.compile.slotplan.SlotPlan`
        of an instance's current shape, or None once it is deleted -- and
        ``instance_of(iid)``, the live connection table the plan's
        crossing edges and bindings are joined against.
    storage:
        Gateway for instance touches (disk accounting).
    usage:
        Self-adaptive statistics (crossing counts, decaying averages).
    """

    slot_plans: Any
    storage: StorageManager
    usage: UsageStats

    def read_slot_value(self, slot: Slot) -> Any:
        """Raw cached value of a slot (no evaluation, no touch)."""
        ...

    def write_slot_value(self, slot: Slot, value: Any) -> None:
        """Store a freshly computed derived value (no marking)."""
        ...

    def has_slot_value(self, slot: Slot) -> bool:
        """True when a cached value exists for the slot."""
        ...

    def handle_constraint_result(self, slot: Slot, holds: bool) -> None:
        """Called after a ``__constraint__`` slot evaluates.

        The host applies recovery actions and raises
        :class:`repro.errors.ConstraintViolation` when the constraint
        ultimately fails.
        """
        ...

    def handle_subtype_result(self, slot: Slot, member: bool) -> None:
        """Called after a ``__subtype__`` slot evaluates; flips membership."""
        ...
