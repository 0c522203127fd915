"""Attribute evaluation rules and their declared dependencies.

The Cactis model attaches *attribute evaluation rules* to derived attributes
and to transmitted values.  A rule may use, per the paper, "attribute values
passed to it from instances the given instance is directly related to via
named relationships" plus local attributes of the same instance.  Dependency
information must be statically available -- the incremental algorithm's
first phase walks the dependency graph without running any rules -- so each
rule *declares* its inputs:

* :class:`Local` -- a local attribute of the same instance.
* :class:`Received` -- a named value received across one of the instance's
  relationship ports.  For a ``multi`` port the rule receives a list of
  values, one per connected instance in connection order; for a single
  port it receives one value (or the declared default when the port is
  dangling, playing the role of the paper's "dummy instances").
* :class:`SelfRef` -- the instance id itself, for rules that need to consult
  external context keyed by instance (the make facility passes it to the
  simulated file system, for example).

The rule body is an ordinary Python callable invoked with one keyword
argument per declared input.  Rules compiled from the DSL
(:mod:`repro.dsl.compiler`) produce exactly this structure, so the evaluator
never distinguishes hand-written from compiled rules.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Mapping

from repro.core.slots import transmit_name
from repro.errors import SchemaError


@dataclass(frozen=True)
class Local:
    """Dependency on a local attribute of the same instance."""

    attr: str


@dataclass(frozen=True)
class Received:
    """Dependency on a value received across a relationship port.

    ``port`` names a relationship port of the *consuming* class; ``value``
    names a value transmitted by instances connected on that port.
    """

    port: str
    value: str


@dataclass(frozen=True)
class SelfRef:
    """Pseudo-dependency providing the instance's own id to the rule body."""


Input = Local | Received | SelfRef

#: static op count charged to a native (opaque Python) rule body -- the cost
#: model's and the query planner's stand-in where there is no AST to count.
NATIVE_OPS = 8


@dataclass(frozen=True)
class AttributeTarget:
    """Rule output: a derived local attribute."""

    attr: str


@dataclass(frozen=True)
class TransmitTarget:
    """Rule output: a value transmitted out across a relationship port."""

    port: str
    value: str


Target = AttributeTarget | TransmitTarget


@dataclass(frozen=True)
class Rule:
    """An attribute evaluation rule.

    Parameters
    ----------
    target:
        What the rule computes: an :class:`AttributeTarget` for a derived
        attribute or a :class:`TransmitTarget` for a transmitted value.
    inputs:
        Mapping from keyword-argument name to input declaration.  The body
        is called as ``body(**{name: resolved_value})``.
    body:
        The computation.  Must be a pure function of its inputs: the
        incremental algorithm assumes re-running a rule with equal inputs
        yields an equal value (this is what makes "evaluate each attribute
        at most once" sound).
    name:
        Optional diagnostic name; defaults to a rendering of the target.

    ``slot_name`` (derived, not a constructor argument) is the name of the
    slot the rule computes: the attribute name, or ``port>value``.
    """

    target: Target
    inputs: Mapping[str, Input]
    body: Callable[..., Any]
    name: str = ""

    def __post_init__(self) -> None:
        if not isinstance(self.target, (AttributeTarget, TransmitTarget)):
            raise SchemaError(f"invalid rule target: {self.target!r}")
        for key, inp in self.inputs.items():
            if not isinstance(inp, (Local, Received, SelfRef)):
                raise SchemaError(
                    f"invalid input declaration {inp!r} for parameter {key!r}"
                )
        if not callable(self.body):
            raise SchemaError("rule body must be callable")
        if not self.name:
            object.__setattr__(self, "name", _default_name(self.target))
        target = self.target
        object.__setattr__(
            self,
            "slot_name",
            target.attr
            if isinstance(target, AttributeTarget)
            else transmit_name(target.port, target.value),
        )
        # Both input views are consulted inside marking waves (edge wiring,
        # receive-port resolution), so they are computed once here rather
        # than rebuilt per call.
        object.__setattr__(
            self,
            "_received_inputs",
            [(k, i) for k, i in self.inputs.items() if isinstance(i, Received)],
        )
        object.__setattr__(
            self,
            "_local_inputs",
            [(k, i) for k, i in self.inputs.items() if isinstance(i, Local)],
        )

    def received_inputs(self) -> list[tuple[str, Received]]:
        """The subset of inputs that cross relationships, with their kw names."""
        return self._received_inputs

    def local_inputs(self) -> list[tuple[str, Local]]:
        """The subset of inputs that are local attributes, with their kw names."""
        return self._local_inputs


def _default_name(target: Target) -> str:
    if isinstance(target, AttributeTarget):
        return f"rule:{target.attr}"
    return f"rule:{target.port}>{target.value}"


@dataclass(frozen=True)
class Constraint:
    """A constraint attached to an object class.

    "A constraint is implemented as a derived attribute value which computes
    a boolean value indicating whether the constraint has been violated."
    The predicate returns True when the constraint *holds*; a False result
    raises :class:`repro.errors.ConstraintViolation`, rolling back the
    enclosing transaction unless the optional ``recovery`` action repairs
    the database first.

    ``recovery`` receives ``(db, instance_id)`` and may issue ordinary
    primitives; after it runs, the constraint is re-evaluated once.  If it
    still fails, the transaction aborts.
    """

    name: str
    inputs: Mapping[str, Input]
    predicate: Callable[..., bool]
    recovery: Callable[[Any, int], None] | None = None

    def __post_init__(self) -> None:
        if not self.name:
            raise SchemaError("constraints must be named")
        for key, inp in self.inputs.items():
            if not isinstance(inp, (Local, Received, SelfRef)):
                raise SchemaError(
                    f"invalid input declaration {inp!r} for parameter {key!r}"
                )
        if not callable(self.predicate):
            raise SchemaError("constraint predicate must be callable")

    def as_rule(self) -> Rule:
        """The derived-boolean-attribute encoding of this constraint.

        The synthetic attribute is named ``__constraint__<name>`` and is
        always *important* (the evaluator treats constraint slots as having
        a standing demand), so violations surface eagerly at update time.
        """
        return Rule(
            target=AttributeTarget(constraint_attr_name(self.name)),
            inputs=dict(self.inputs),
            body=self.predicate,
            name=f"constraint:{self.name}",
        )


def constraint_attr_name(constraint_name: str) -> str:
    """Name of the synthetic derived attribute backing a constraint."""
    return f"__constraint__{constraint_name}"


def is_constraint_attr(attr_name: str) -> bool:
    """True when the attribute name backs a constraint predicate."""
    return attr_name.startswith("__constraint__")


def constraint_name_of(attr_name: str) -> str:
    """Recover the constraint name from its synthetic attribute name."""
    return attr_name[len("__constraint__"):]


@dataclass(frozen=True)
class SubtypePredicate:
    """A predicate defining membership of a subtype.

    "Objects are broken into type/subtype hierarchies based on the values of
    relationships and attributes, via predicates."  The predicate is encoded
    as a derived boolean attribute on the *supertype* named
    ``__subtype__<name>``; when it flips, the instance gains or loses the
    subtype's additional attributes and rules (see
    :mod:`repro.core.subtypes`).
    """

    subtype_name: str
    inputs: Mapping[str, Input]
    predicate: Callable[..., bool]

    def as_rule(self) -> Rule:
        return Rule(
            target=AttributeTarget(subtype_attr_name(self.subtype_name)),
            inputs=dict(self.inputs),
            body=self.predicate,
            name=f"subtype:{self.subtype_name}",
        )


def subtype_attr_name(subtype_name: str) -> str:
    """Name of the synthetic derived attribute backing subtype membership."""
    return f"__subtype__{subtype_name}"


def is_subtype_attr(attr_name: str) -> bool:
    """True when the attribute name backs a subtype membership predicate."""
    return attr_name.startswith("__subtype__")


def subtype_name_of(attr_name: str) -> str:
    """Recover the subtype name from its synthetic attribute name."""
    return attr_name[len("__subtype__"):]
