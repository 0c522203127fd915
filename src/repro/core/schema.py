"""Schema: object classes, relationship types, and their validation.

A Cactis database schema consists of *types* (object classes), *subtypes*
(predicate-defined refinements), *relationships*, *constraints*, and
*predicates*.  This module provides those constructs:

* :class:`RelationshipType` -- a named, typed connection kind, e.g. Figure
  1's ``milestone_dep`` or Figure 2's ``make_result``.  Each relationship
  type declares the named values that flow across it and in which direction
  (plug-to-socket or socket-to-plug), with an atom type and a default used
  when a port is left dangling (the paper's "dummy instances to tie off any
  dangling relationships").
* :class:`PortDef` -- a class's named end of a relationship type: a *plug*
  or a *socket*, single-valued or ``Multi``.  Figure 1 declares
  ``depends_on: milestone_dep Multi Socket`` and
  ``consists_of: milestone_dep Multi Plug``.
* :class:`AttributeDef` -- an intrinsic or derived attribute with an atomic
  type.
* :class:`ObjectClass` -- a named type: attributes, ports, rules,
  constraints, an optional supertype, and (for predicate subtypes) the
  membership predicate.
* :class:`Schema` -- the collection, with structural validation performed
  when the schema is *frozen*.  Cactis is extensible -- "the DBMS allows the
  user to extend the type structure" -- so a schema may be unfrozen,
  extended with new classes, and refrozen while a database is live.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Any, Iterable

from repro.core.atoms import AtomRegistry
from repro.core.rules import (
    AttributeTarget,
    Constraint,
    Local,
    Received,
    Rule,
    SubtypePredicate,
    TransmitTarget,
)
from repro.errors import SchemaError, UnknownTypeError


class End(enum.Enum):
    """Which end of a relationship type a port occupies."""

    PLUG = "plug"
    SOCKET = "socket"

    @property
    def opposite(self) -> "End":
        return End.SOCKET if self is End.PLUG else End.PLUG


class AttrKind(enum.Enum):
    """Intrinsic attributes are directly assignable; derived ones carry rules."""

    INTRINSIC = "intrinsic"
    DERIVED = "derived"


@dataclass(frozen=True)
class FlowDecl:
    """A named value flowing across a relationship type in one direction."""

    value: str
    atom: str
    sent_by: End
    default: Any = None


class RelationshipType:
    """A typed connection between two ports of opposite ends.

    ``flows`` declares every named value transported by the relationship.
    A value is *sent by* one end (where a transmit rule computes it) and
    *received by* the opposite end (where consuming rules declare a
    :class:`~repro.core.rules.Received` input).
    """

    def __init__(self, name: str, flows: Iterable[FlowDecl] = ()) -> None:
        if not name:
            raise SchemaError("relationship types must be named")
        self.name = name
        self.flows: dict[str, FlowDecl] = {}
        for flow in flows:
            self.add_flow(flow)

    def add_flow(self, flow: FlowDecl) -> None:
        if flow.value in self.flows:
            raise SchemaError(
                f"relationship type {self.name!r} already declares value "
                f"{flow.value!r}"
            )
        self.flows[flow.value] = flow

    def flow(self, value: str) -> FlowDecl:
        try:
            return self.flows[value]
        except KeyError:
            raise SchemaError(
                f"relationship type {self.name!r} declares no value {value!r}"
            ) from None

    def values_sent_by(self, end: End) -> list[FlowDecl]:
        """All values an instance on ``end`` is responsible for transmitting."""
        return [f for f in self.flows.values() if f.sent_by is end]

    def values_received_by(self, end: End) -> list[FlowDecl]:
        """All values an instance on ``end`` may consume."""
        return [f for f in self.flows.values() if f.sent_by is not end]

    def __repr__(self) -> str:
        return f"RelationshipType({self.name!r}, values={sorted(self.flows)})"


@dataclass(frozen=True)
class PortDef:
    """A class's named relationship port."""

    name: str
    rel_type: str
    end: End
    multi: bool = False


@dataclass(frozen=True)
class AttributeDef:
    """An attribute declaration.

    ``default`` applies to intrinsic attributes only; ``None`` means "use
    the atom type's default".  Derived attributes take their value from
    their rule and may not be assigned.
    """

    name: str
    atom: str
    kind: AttrKind = AttrKind.INTRINSIC
    default: Any = None

    @property
    def intrinsic(self) -> bool:
        return self.kind is AttrKind.INTRINSIC

    @property
    def derived(self) -> bool:
        return self.kind is AttrKind.DERIVED


class ObjectClass:
    """An object class: the unit of typing in the Cactis model.

    A class may name a ``supertype``; it then inherits the supertype's
    attributes, ports, rules, and constraints, and may add its own.  If a
    ``predicate`` is supplied, the class is a *predicate subtype*: instances
    are never created with this type directly; instead, instances of the
    supertype whose predicate evaluates true dynamically acquire the
    subtype's extra attributes and rules (Car_Buff in the paper's example;
    ``very_late`` milestones in Section 4).
    """

    def __init__(
        self,
        name: str,
        attributes: Iterable[AttributeDef] = (),
        ports: Iterable[PortDef] = (),
        rules: Iterable[Rule] = (),
        constraints: Iterable[Constraint] = (),
        supertype: str | None = None,
        predicate: SubtypePredicate | None = None,
    ) -> None:
        if not name:
            raise SchemaError("object classes must be named")
        if predicate is not None and supertype is None:
            raise SchemaError(
                f"predicate subtype {name!r} must name a supertype"
            )
        if predicate is not None and predicate.subtype_name != name:
            raise SchemaError(
                f"predicate subtype_name {predicate.subtype_name!r} must match "
                f"class name {name!r}"
            )
        self.name = name
        self.supertype = supertype
        self.predicate = predicate
        self.attributes: dict[str, AttributeDef] = {}
        self.ports: dict[str, PortDef] = {}
        self.rules: list[Rule] = []
        self.constraints: list[Constraint] = []
        for attr in attributes:
            self.add_attribute(attr)
        for port in ports:
            self.add_port(port)
        for rule in rules:
            self.add_rule(rule)
        for constraint in constraints:
            self.add_constraint(constraint)

    # -- construction -----------------------------------------------------

    def add_attribute(self, attr: AttributeDef) -> None:
        if attr.name in self.attributes:
            raise SchemaError(
                f"class {self.name!r} already declares attribute {attr.name!r}"
            )
        self.attributes[attr.name] = attr

    def add_port(self, port: PortDef) -> None:
        if port.name in self.ports:
            raise SchemaError(
                f"class {self.name!r} already declares port {port.name!r}"
            )
        if port.name in self.attributes:
            raise SchemaError(
                f"class {self.name!r}: port {port.name!r} collides with an "
                f"attribute name"
            )
        self.ports[port.name] = port

    def add_rule(self, rule: Rule) -> None:
        self.rules.append(rule)

    def add_constraint(self, constraint: Constraint) -> None:
        if any(c.name == constraint.name for c in self.constraints):
            raise SchemaError(
                f"class {self.name!r} already declares constraint "
                f"{constraint.name!r}"
            )
        self.constraints.append(constraint)

    def __repr__(self) -> str:
        return f"ObjectClass({self.name!r})"


@dataclass
class ResolvedClass:
    """The flattened, inheritance-resolved view of an object class.

    Built when a schema freezes.  ``attributes``/``ports`` include inherited
    declarations; ``rules`` includes inherited rules plus the synthetic rules
    backing constraints and predicate-subtype membership; ``rule_for`` maps a
    slot name (attribute name, or ``port>value``) to its rule.

    ``predicate_subtypes`` lists the predicate subtypes hanging directly off
    this class; their extra structure attaches to instances dynamically and
    is therefore *not* flattened in.
    """

    name: str
    #: the class and its supertypes, most specific first.  (Named
    #: ``lineage`` rather than ``mro`` because ``getattr(cls, "mro")``
    #: resolves to ``type.mro`` and confuses ``dataclasses`` defaults.)
    lineage: tuple[str, ...]
    attributes: dict[str, AttributeDef]
    ports: dict[str, PortDef]
    rules: list[Rule]
    constraints: list[Constraint]
    rule_for: dict[str, Rule]
    predicate_subtypes: list[str] = field(default_factory=list)

    def attribute(self, name: str) -> AttributeDef:
        try:
            return self.attributes[name]
        except KeyError:
            from repro.errors import UnknownAttributeError

            raise UnknownAttributeError(
                f"class {self.name!r} has no attribute {name!r}"
            ) from None

    def port(self, name: str) -> PortDef:
        try:
            return self.ports[name]
        except KeyError:
            from repro.errors import UnknownRelationshipError

            raise UnknownRelationshipError(
                f"class {self.name!r} has no relationship port {name!r}"
            ) from None


class Schema:
    """A mutable-until-frozen collection of relationship types and classes.

    Typical lifecycle::

        schema = Schema()
        schema.add_relationship_type(...)
        schema.add_class(...)
        schema.freeze()            # validates; database opens against it
        ...
        schema.unfreeze()          # dynamic extension (new tools!)
        schema.add_class(...)
        schema.freeze()
    """

    def __init__(self, atoms: AtomRegistry | None = None) -> None:
        self.atoms = atoms if atoms is not None else AtomRegistry()
        self.relationship_types: dict[str, RelationshipType] = {}
        self.classes: dict[str, ObjectClass] = {}
        self._resolved: dict[str, ResolvedClass] = {}
        self._frozen = False
        #: bumped on every freeze; lets caches keyed on schema state expire
        #: when the type structure is dynamically extended.
        self.version = 0
        #: stats from the freeze-time rule-body compilation pass
        #: (see :mod:`repro.compile`); surfaced as ``compile.*`` metrics.
        self.compile_stats: dict[str, Any] = {}
        #: :class:`~repro.analysis.facts.AnalysisFacts` from the last
        #: freeze, or None (analysis failed).
        self.analysis_facts: Any = None
        #: class name -> attribute names with a maintained secondary index
        #: (see :mod:`repro.index`); declared via :meth:`add_index` and
        #: validated when the schema freezes.
        self.indexes: dict[str, tuple[str, ...]] = {}

    # -- construction -----------------------------------------------------

    @property
    def frozen(self) -> bool:
        return self._frozen

    def _require_mutable(self) -> None:
        if self._frozen:
            raise SchemaError(
                "schema is frozen; call unfreeze() before extending it"
            )

    def add_relationship_type(self, rel_type: RelationshipType) -> RelationshipType:
        self._require_mutable()
        if rel_type.name in self.relationship_types:
            raise SchemaError(
                f"relationship type {rel_type.name!r} already defined"
            )
        self.relationship_types[rel_type.name] = rel_type
        return rel_type

    def add_class(self, cls: ObjectClass) -> ObjectClass:
        self._require_mutable()
        if cls.name in self.classes:
            raise SchemaError(f"object class {cls.name!r} already defined")
        self.classes[cls.name] = cls
        return cls

    def extend_class(self, name: str) -> ObjectClass:
        """Return an existing class for in-place extension (schema must be mutable)."""
        self._require_mutable()
        return self._raw_class(name)

    def add_index(self, class_name: str, attr: str) -> None:
        """Declare a maintained secondary index over ``class_name.attr``.

        The attribute may be intrinsic or derived; the index covers the
        class and all of its static subclasses.  Validated (class exists,
        is not a predicate subtype, declares the attribute) at freeze,
        alongside the rest of the schema.
        """
        self._require_mutable()
        attrs = self.indexes.get(class_name, ())
        if attr in attrs:
            raise SchemaError(
                f"class {class_name!r} already declares an index on {attr!r}"
            )
        self.indexes[class_name] = tuple(sorted((*attrs, attr)))

    def drop_index(self, class_name: str, attr: str) -> None:
        """Remove a previously declared index (schema must be mutable)."""
        self._require_mutable()
        attrs = tuple(a for a in self.indexes.get(class_name, ()) if a != attr)
        if attrs:
            self.indexes[class_name] = attrs
        else:
            self.indexes.pop(class_name, None)

    def unfreeze(self) -> None:
        """Re-open a frozen schema for extension."""
        self._frozen = False

    # -- lookup ------------------------------------------------------------

    def _raw_class(self, name: str) -> ObjectClass:
        try:
            return self.classes[name]
        except KeyError:
            raise UnknownTypeError(f"unknown object class {name!r}") from None

    def relationship_type(self, name: str) -> RelationshipType:
        try:
            return self.relationship_types[name]
        except KeyError:
            raise SchemaError(f"unknown relationship type {name!r}") from None

    def resolved(self, name: str) -> ResolvedClass:
        """Inheritance-flattened view of a class (schema must be frozen)."""
        if not self._frozen:
            raise SchemaError("schema must be frozen before classes are resolved")
        try:
            return self._resolved[name]
        except KeyError:
            raise UnknownTypeError(f"unknown object class {name!r}") from None

    def class_names(self) -> list[str]:
        return sorted(self.classes)

    def is_subclass(self, name: str, of: str) -> bool:
        """True when ``name`` equals ``of`` or inherits from it (transitively)."""
        current: str | None = name
        while current is not None:
            if current == of:
                return True
            current = self._raw_class(current).supertype
        return False

    # -- freezing / validation ---------------------------------------------

    def freeze(self) -> "Schema":
        """Validate the whole schema and build resolved class views.

        Validation does not stop at the first problem: every violation
        across every class is collected, and a single :class:`SchemaError`
        reports them all (one per line), so a schema author can fix a batch
        of mistakes in one round trip.
        """
        self._resolved = {}
        problems: list[str] = []
        for name in self.classes:
            try:
                self._resolved[name] = self._resolve_class(name)
            except SchemaError as exc:
                # Resolution failures (inheritance cycles, unknown
                # supertypes) make the flattened view meaningless; record
                # the problem and skip per-class validation.
                problems.append(str(exc))
        for resolved in self._resolved.values():
            problems.extend(self._validate_resolved(resolved))
        problems.extend(self._validate_indexes())
        if problems:
            self._resolved = {}
            if len(problems) == 1:
                raise SchemaError(problems[0])
            raise SchemaError(
                f"{len(problems)} schema violations:\n  "
                + "\n  ".join(problems)
            )
        self._frozen = True
        self.version += 1
        # Static value analysis feeds the compile passes below: constraint
        # folding, cost-ordered slot plans, and cold-start clustering
        # weights.  Imported lazily -- repro.analysis walks schema objects,
        # which import this module.  A failure here must never block a
        # freeze (the facts are advisory), so it degrades to None.
        from repro.analysis.facts import compute_facts

        try:
            self.analysis_facts = compute_facts(self)
        except Exception:  # an analyzer bug must not block the freeze
            self.analysis_facts = None
        # Compile once, serve many: fold constant predicates, then swap
        # DSL-interpreted rule bodies for specialized closures.
        from repro.compile import compile_frozen_schema, fold_frozen_schema

        fold_stats = fold_frozen_schema(self)
        self.compile_stats = compile_frozen_schema(self)
        self.compile_stats.update(fold_stats)
        return self

    def _mro(self, name: str) -> tuple[str, ...]:
        chain: list[str] = []
        seen: set[str] = set()
        current: str | None = name
        while current is not None:
            if current in seen:
                raise SchemaError(
                    f"inheritance cycle involving class {current!r}"
                )
            seen.add(current)
            chain.append(current)
            current = self._raw_class(current).supertype
        return tuple(chain)

    def _resolve_class(self, name: str) -> ResolvedClass:
        mro = self._mro(name)
        attributes: dict[str, AttributeDef] = {}
        ports: dict[str, PortDef] = {}
        rules: list[Rule] = []
        constraints: list[Constraint] = []
        # Walk from the root of the hierarchy down so subclasses may override.
        for cls_name in reversed(mro):
            cls = self._raw_class(cls_name)
            attributes.update(cls.attributes)
            ports.update(cls.ports)
            rules.extend(cls.rules)
            rules.extend(c.as_rule() for c in cls.constraints)
            constraints.extend(cls.constraints)
            if cls.predicate is not None and cls_name != name:
                # Predicate of an ancestor applies to us statically only if
                # we *are* that subtype; membership predicates are evaluated
                # per supertype instance, handled below via predicate_subtypes.
                pass
        resolved = ResolvedClass(
            name=name,
            lineage=mro,
            attributes=attributes,
            ports=ports,
            rules=rules,
            constraints=constraints,
            rule_for={},
            predicate_subtypes=[
                sub.name
                for sub in self.classes.values()
                # Membership predicates apply to instances of the supertype
                # *and* of its static subclasses (an Employee can be a
                # Car_Buff when Car_Buff refines Person).
                if sub.predicate is not None and sub.supertype in mro
            ],
        )
        # Membership rules of direct predicate subtypes are evaluated on
        # instances of this class, so they join the rule set here.
        for sub_name in resolved.predicate_subtypes:
            sub = self._raw_class(sub_name)
            assert sub.predicate is not None
            resolved.rules.append(sub.predicate.as_rule())
        resolved.rule_for = self._index_rules(resolved)
        return resolved

    def _index_rules(self, resolved: ResolvedClass) -> dict[str, Rule]:
        index: dict[str, Rule] = {}
        for rule in resolved.rules:
            # Later rules override earlier ones: a subclass redefining a rule
            # replaces the inherited computation.
            index[rule.slot_name] = rule
        return index

    def _validate_indexes(self) -> list[str]:
        """All violations among the declared secondary indexes."""
        problems: list[str] = []
        for class_name, attrs in sorted(self.indexes.items()):
            cls = self.classes.get(class_name)
            if cls is None:
                problems.append(
                    f"index on unknown object class {class_name!r}"
                )
                continue
            if cls.predicate is not None:
                problems.append(
                    f"class {class_name!r} is a predicate subtype; its extent "
                    f"is maintained automatically -- declare attribute "
                    f"indexes on the supertype instead"
                )
                continue
            resolved = self._resolved.get(class_name)
            if resolved is None:  # resolution already failed; reported above
                continue
            for attr in attrs:
                if attr not in resolved.attributes:
                    problems.append(
                        f"index on {class_name!r}.{attr!r}: class has no "
                        f"attribute {attr!r}"
                    )
        return problems

    def _validate_resolved(self, resolved: ResolvedClass) -> list[str]:
        """All violations in one resolved class, as message strings."""
        problems: list[str] = []
        for attr in resolved.attributes.values():
            try:
                self.atoms.get(attr.atom)
            except SchemaError as exc:
                problems.append(
                    f"class {resolved.name!r}: attribute {attr.name!r}: {exc}"
                )
        for port in resolved.ports.values():
            try:
                self.relationship_type(port.rel_type)
            except SchemaError as exc:
                problems.append(
                    f"class {resolved.name!r}: port {port.name!r}: {exc}"
                )
        derived = {
            a.name for a in resolved.attributes.values() if a.derived
        }
        ruled = {
            r.target.attr
            for r in resolved.rules
            if isinstance(r.target, AttributeTarget)
        }
        missing = derived - ruled
        if missing:
            problems.append(
                f"class {resolved.name!r}: derived attributes without rules: "
                f"{sorted(missing)}"
            )
        for rule in resolved.rules:
            problems.extend(self._validate_rule(resolved, rule))
        return problems

    def _validate_rule(self, resolved: ResolvedClass, rule: Rule) -> list[str]:
        problems: list[str] = []
        target = rule.target
        if isinstance(target, AttributeTarget):
            if target.attr in resolved.attributes:
                attr = resolved.attributes[target.attr]
                if attr.intrinsic:
                    problems.append(
                        f"class {resolved.name!r}: rule {rule.name!r} targets "
                        f"intrinsic attribute {target.attr!r}"
                    )
            elif not _is_synthetic_attr(target.attr):
                problems.append(
                    f"class {resolved.name!r}: rule {rule.name!r} targets "
                    f"unknown attribute {target.attr!r}"
                )
        else:
            port = resolved.ports.get(target.port)
            if port is None:
                problems.append(
                    f"class {resolved.name!r}: rule {rule.name!r} transmits on "
                    f"unknown port {target.port!r}"
                )
            else:
                try:
                    rel = self.relationship_type(port.rel_type)
                    flow = rel.flow(target.value)
                except SchemaError as exc:
                    problems.append(
                        f"class {resolved.name!r}: rule {rule.name!r}: {exc}"
                    )
                else:
                    if flow.sent_by is not port.end:
                        problems.append(
                            f"class {resolved.name!r}: rule {rule.name!r} "
                            f"transmits {target.value!r} on port "
                            f"{target.port!r}, but that value flows "
                            f"{flow.sent_by.value}-to-"
                            f"{flow.sent_by.opposite.value}"
                        )
        for key, inp in rule.inputs.items():
            if isinstance(inp, Local):
                if inp.attr not in resolved.attributes and not _is_synthetic_attr(
                    inp.attr
                ):
                    problems.append(
                        f"class {resolved.name!r}: rule {rule.name!r} input "
                        f"{key!r} references unknown attribute {inp.attr!r}"
                    )
            elif isinstance(inp, Received):
                port = resolved.ports.get(inp.port)
                if port is None:
                    problems.append(
                        f"class {resolved.name!r}: rule {rule.name!r} input "
                        f"{key!r} receives on unknown port {inp.port!r}"
                    )
                    continue
                try:
                    rel = self.relationship_type(port.rel_type)
                    flow = rel.flow(inp.value)
                except SchemaError as exc:
                    problems.append(
                        f"class {resolved.name!r}: rule {rule.name!r} input "
                        f"{key!r}: {exc}"
                    )
                    continue
                if flow.sent_by is port.end:
                    problems.append(
                        f"class {resolved.name!r}: rule {rule.name!r} input "
                        f"{key!r} receives {inp.value!r} on port "
                        f"{inp.port!r}, but this end *sends* that value"
                    )
        return problems


def _is_synthetic_attr(name: str) -> bool:
    """Constraint and subtype-membership attributes are declared implicitly."""
    return name.startswith("__constraint__") or name.startswith("__subtype__")
