"""The analyzer's view of a schema, built from source AST or Schema objects.

The checks in this package run over a :class:`SchemaModel` -- a flattened,
inheritance-resolved description of classes, ports, attributes, rules,
constraints, and subtype predicates.  Two builders produce it:

* :func:`model_from_decl` -- from a parsed :class:`repro.dsl.ast.SchemaDecl`.
  Rule bodies keep their ASTs, every element carries a source span, and name
  resolution problems become ``CA1xx`` diagnostics instead of the
  compiler's fail-fast :class:`~repro.errors.DslCompileError`.
* :func:`model_from_schema` -- from a compiled (possibly hand-built)
  :class:`~repro.core.schema.Schema`.  Dependencies come from each rule's
  *declared* inputs, so cycle and dead-code analysis work even for opaque
  Python rule bodies; DSL-compiled rules additionally expose their ASTs for
  the type and predicate checks.

Dependencies are normalised to tuples: ``("local", attr)`` and
``("received", port, value)``; rule targets to slot names (``attr`` or
``port>value`` -- the same encoding :mod:`repro.core.slots` uses).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.core.rules import (
    AttributeTarget,
    Local,
    Received,
    constraint_attr_name,
    subtype_attr_name,
)
from repro.core.schema import Schema
from repro.dsl import ast
from repro.dsl.compiler import DEFAULT_CONSTANTS, DEFAULT_FUNCTIONS
from repro.dsl.resolve import Port, Resolution, Scope, body_of, resolve
from repro.analysis.diagnostics import Diagnostic

Dep = tuple  # ("local", attr) | ("received", port, value)


@dataclass
class FlowInfo:
    value: str
    atom: str
    sent_by: str  # "plug" | "socket"
    line: int = 0
    column: int = 0


@dataclass
class RelInfo:
    name: str
    flows: dict[str, FlowInfo] = field(default_factory=dict)
    line: int = 0
    column: int = 0

    def received_by(self, end: str) -> list[FlowInfo]:
        return [f for f in self.flows.values() if f.sent_by != end]

    def sent_by_end(self, end: str) -> list[FlowInfo]:
        return [f for f in self.flows.values() if f.sent_by == end]


@dataclass
class AttrInfo:
    name: str
    atom: str
    derived: bool = False
    line: int = 0
    column: int = 0
    declared_in: str = ""


@dataclass
class PortInfo:
    name: str
    rel_type: str
    end: str  # "plug" | "socket"
    multi: bool = False
    line: int = 0
    column: int = 0
    declared_in: str = ""


@dataclass
class RuleInfo:
    """One rule, constraint, or subtype predicate of a class.

    ``target`` is a slot name; constraints and predicates use the synthetic
    ``__constraint__<name>`` / ``__subtype__<name>`` encoding so the
    dependency passes treat them uniformly.  ``kind`` distinguishes them
    for reporting: ``"rule"``, ``"constraint"``, or ``"predicate"``.
    """

    target: str
    class_name: str
    kind: str = "rule"
    display: str = ""
    deps: set[Dep] = field(default_factory=set)
    #: first source span seen for each dependency (for cycle messages).
    dep_spans: dict[Dep, tuple[int, int]] = field(default_factory=dict)
    body: ast.RuleBody | None = None
    #: what every name in ``body`` is bound to (None without a body).
    resolution: Resolution | None = None
    #: declared inputs (Schema path only) for the unused-input check.
    declared_deps: set[Dep] | None = None
    line: int = 0
    column: int = 0
    ok: bool = True  # False when resolution failed; later passes skip it

    @property
    def is_transmit(self) -> bool:
        return ">" in self.target


@dataclass
class ClassInfo:
    name: str
    supertype: str | None = None
    where: ast.Expr | None = None
    attrs: dict[str, AttrInfo] = field(default_factory=dict)
    ports: dict[str, PortInfo] = field(default_factory=dict)
    rules: list[RuleInfo] = field(default_factory=list)
    line: int = 0
    column: int = 0


@dataclass
class SchemaModel:
    relationships: dict[str, RelInfo] = field(default_factory=dict)
    classes: dict[str, ClassInfo] = field(default_factory=dict)
    functions: set[str] = field(default_factory=set)
    constants: set[str] = field(default_factory=set)
    atoms: set[str] = field(default_factory=set)
    diagnostics: list[Diagnostic] = field(default_factory=list)

    # -- inheritance-resolved views ---------------------------------------

    def lineage(self, name: str) -> list[str]:
        """``name`` and its supertypes, most specific first; cycle-safe."""
        chain: list[str] = []
        seen: set[str] = set()
        current: str | None = name
        while current is not None and current in self.classes:
            if current in seen:
                break
            seen.add(current)
            chain.append(current)
            current = self.classes[current].supertype
        return chain

    def all_attrs(self, name: str) -> dict[str, AttrInfo]:
        merged: dict[str, AttrInfo] = {}
        for cls_name in reversed(self.lineage(name)):
            merged.update(self.classes[cls_name].attrs)
        return merged

    def all_ports(self, name: str) -> dict[str, PortInfo]:
        merged: dict[str, PortInfo] = {}
        for cls_name in reversed(self.lineage(name)):
            merged.update(self.classes[cls_name].ports)
        return merged

    def effective_rules(self, name: str) -> dict[str, RuleInfo]:
        """Rules in force for instances of ``name``, keyed by target slot.

        Walks the lineage root-down so a subclass's rule overrides the
        inherited one (mirrors ``Schema._index_rules``), then attaches the
        membership rules of predicate subtypes hanging off any ancestor
        (their predicates evaluate on supertype instances).
        """
        index: dict[str, RuleInfo] = {}
        mro = set(self.lineage(name))
        for cls_name in reversed(self.lineage(name)):
            for rule in self.classes[cls_name].rules:
                index[rule.target] = rule
        for sub in self.classes.values():
            if sub.supertype in mro:
                for rule in sub.rules:
                    if rule.kind == "predicate":
                        index[rule.target] = rule
        return index

    def flow_of(self, cls_name: str, port: str, value: str) -> FlowInfo | None:
        ports = self.all_ports(cls_name)
        info = ports.get(port)
        if info is None:
            return None
        rel = self.relationships.get(info.rel_type)
        if rel is None:
            return None
        return rel.flows.get(value)

    def report(self, code: str, message: str, node: Any = None) -> None:
        line = getattr(node, "line", 0) or 0
        column = getattr(node, "column", 0) or 0
        self.diagnostics.append(Diagnostic(code, message, line, column))

    def scope_of(self, name: str) -> Scope:
        """What rule bodies of class ``name`` can see, for the resolver."""
        ports = {}
        for port in self.all_ports(name).values():
            rel = self.relationships.get(port.rel_type)
            received = None if rel is None else tuple(
                f.value for f in rel.received_by(port.end)
            )
            ports[port.name] = Port(port.multi, port.rel_type, received)
        return Scope(
            name,
            self.all_attrs(name),
            ports,
            self.constants,
            self.functions,
            self.atoms,
        )

    def resolved(self, scope: Scope, body: ast.RuleBody, **info: Any) -> RuleInfo:
        """A :class:`RuleInfo` for ``body`` resolved in ``scope``.

        Resolution problems become diagnostics and clear ``ok`` so later
        passes skip the rule -- except a bare loop variable (CA305), which
        leaves the rest of the body checkable, and CA107, which the port's
        declaration has already reported.
        """
        ok = True

        def sink(code: str, message: str, node: Any) -> None:
            nonlocal ok
            ok = ok and code == "CA305"
            if code != "CA107":
                self.report(code, message, node)

        resolution = resolve(body, scope, sink)
        spans = dep_spans(resolution)
        return RuleInfo(
            class_name=scope.class_name,
            deps=set(spans),
            dep_spans=spans,
            body=body,
            resolution=resolution,
            ok=ok,
            **info,
        )


def dep_spans(resolution: Resolution) -> dict[Dep, tuple[int, int]]:
    """A resolution's dependencies in the analyzer's tuple encoding."""
    spans: dict[Dep, tuple[int, int]] = {
        ("local", attr): span for attr, span in resolution.locals.items()
    }
    for (port, value), span in resolution.received.items():
        spans[("received", port, value)] = span
    return spans


# ---------------------------------------------------------------------------
# builder: from a parsed SchemaDecl
# ---------------------------------------------------------------------------


def model_from_decl(
    decl: ast.SchemaDecl,
    functions: set[str] | None = None,
    constants: set[str] | None = None,
    atoms: set[str] | None = None,
) -> SchemaModel:
    """Build the analyzer model from a parsed schema, collecting CA1xx."""
    model = SchemaModel()
    model.functions = set(DEFAULT_FUNCTIONS) | (functions or set())
    model.constants = set(DEFAULT_CONSTANTS) | (constants or set())
    if atoms is None:
        from repro.core.atoms import AtomRegistry

        atoms = set(AtomRegistry().names())
    model.atoms = atoms

    for rel in decl.relationships:
        _declare_relationship(model, rel)
    for cls in decl.classes:
        _declare_class(model, cls)
    for cls in decl.classes:
        _check_class_structure(model, cls)
        _collect_class_rules(model, cls)
    return model


def _declare_relationship(model: SchemaModel, rel: ast.RelationshipDecl) -> None:
    if rel.name in model.relationships:
        model.report(
            "CA109", f"relationship type {rel.name!r} declared twice", rel
        )
        return
    info = RelInfo(rel.name, line=rel.line, column=rel.column)
    for flow in rel.flows:
        if flow.value in info.flows:
            model.report(
                "CA109",
                f"relationship {rel.name!r} declares value "
                f"{flow.value!r} twice",
                flow,
            )
            continue
        if flow.type_name not in model.atoms:
            model.report(
                "CA113",
                f"relationship {rel.name!r}: value {flow.value!r} has "
                f"unknown atom type {flow.type_name!r}",
                flow,
            )
        info.flows[flow.value] = FlowInfo(
            flow.value, flow.type_name, flow.sent_by, flow.line, flow.column
        )
    model.relationships[rel.name] = info


def _declare_class(model: SchemaModel, cls: ast.ClassDecl) -> None:
    if cls.name in model.classes:
        model.report("CA109", f"object class {cls.name!r} declared twice", cls)
        return
    info = ClassInfo(
        cls.name,
        supertype=cls.supertype,
        where=cls.where,
        line=cls.line,
        column=cls.column,
    )
    ruled = {r.target_attr for r in cls.rules if r.target_attr}
    for attr in cls.attrs:
        if attr.name in info.attrs:
            model.report(
                "CA109",
                f"class {cls.name!r} declares attribute {attr.name!r} twice",
                attr,
            )
            continue
        if attr.type_name not in model.atoms:
            model.report(
                "CA113",
                f"class {cls.name!r}: attribute {attr.name!r} has unknown "
                f"atom type {attr.type_name!r}",
                attr,
            )
        info.attrs[attr.name] = AttrInfo(
            attr.name,
            attr.type_name,
            derived=attr.derived or attr.name in ruled,
            line=attr.line,
            column=attr.column,
            declared_in=cls.name,
        )
    for port in cls.ports:
        if port.name in info.ports or port.name in info.attrs:
            model.report(
                "CA109",
                f"class {cls.name!r}: port {port.name!r} collides with "
                f"another declaration",
                port,
            )
            continue
        if port.rel_type not in model.relationships:
            model.report(
                "CA107",
                f"class {cls.name!r}: port {port.name!r} uses unknown "
                f"relationship type {port.rel_type!r}",
                port,
            )
        info.ports[port.name] = PortInfo(
            port.name,
            port.rel_type,
            port.end,
            port.multi,
            line=port.line,
            column=port.column,
            declared_in=cls.name,
        )
    model.classes[cls.name] = info


def _check_class_structure(model: SchemaModel, cls: ast.ClassDecl) -> None:
    info = model.classes.get(cls.name)
    if info is None or info.line != cls.line:
        return  # duplicate declaration; only the first is analysed
    if cls.supertype is not None and cls.supertype not in model.classes:
        model.report(
            "CA108",
            f"class {cls.name!r}: unknown supertype {cls.supertype!r}",
            cls,
        )
        info.supertype = None  # analyse the rest as a root class
    # Derived attributes must have a rule somewhere in the lineage.
    ruled = set()
    for cls_name in model.lineage(cls.name):
        for rule_info in model.classes[cls_name].rules:
            ruled.add(rule_info.target)
    # Rules have not been collected yet on the first pass; recompute from
    # the declaration so the check does not depend on pass ordering.
    declared_rules = {r.target_attr for r in cls.rules if r.target_attr}
    for attr in info.attrs.values():
        if attr.derived and attr.name not in declared_rules:
            if not _inherits_rule(model, cls, attr.name):
                model.report(
                    "CA110",
                    f"class {cls.name!r}: derived attribute {attr.name!r} "
                    f"has no rule",
                    attr,
                )


def _inherits_rule(model: SchemaModel, cls: ast.ClassDecl, attr: str) -> bool:
    for cls_name in model.lineage(cls.name)[1:]:
        for rule in model.classes[cls_name].rules:
            if rule.target == attr:
                return True
    return False


def _collect_class_rules(model: SchemaModel, cls: ast.ClassDecl) -> None:
    info = model.classes.get(cls.name)
    if info is None or info.line != cls.line:
        return
    seen_targets: set[str] = set()
    scope = model.scope_of(cls.name)
    for rule in cls.rules:
        rule_info = _build_rule(model, scope, rule)
        if rule_info.target in seen_targets:
            model.report(
                "CA116",
                f"class {cls.name!r} declares two rules for "
                f"{rule_info.display!r}; the later one silently wins",
                rule,
            )
        seen_targets.add(rule_info.target)
        info.rules.append(rule_info)
    seen_constraints: set[str] = set()
    for constraint in cls.constraints:
        if constraint.name in seen_constraints:
            model.report(
                "CA109",
                f"class {cls.name!r} declares constraint "
                f"{constraint.name!r} twice",
                constraint,
            )
            continue
        seen_constraints.add(constraint.name)
        info.rules.append(
            model.resolved(
                scope,
                constraint.predicate,
                target=constraint_attr_name(constraint.name),
                kind="constraint",
                display=f"constraint {constraint.name}",
                line=constraint.line,
                column=constraint.column,
            )
        )
        if constraint.recover is not None and (
            constraint.recover not in model.functions
        ):
            model.report(
                "CA114",
                f"class {cls.name!r}: constraint {constraint.name!r} names "
                f"unknown recovery function {constraint.recover!r}",
                constraint,
            )
    if cls.where is not None:
        info.rules.append(
            model.resolved(
                scope,
                cls.where,
                target=subtype_attr_name(cls.name),
                kind="predicate",
                display=f"subtype predicate of {cls.name}",
                line=cls.line,
                column=cls.column,
            )
        )


def _build_rule(model: SchemaModel, scope: Scope, rule: ast.RuleDecl) -> RuleInfo:
    class_name = scope.class_name
    if rule.target_attr is not None:
        target = rule.target_attr
    else:
        target = f"{rule.target_port}>{rule.target_value}"
    info = model.resolved(
        scope,
        rule.body,
        target=target,
        display=f"{class_name}.{target}",
        line=rule.line,
        column=rule.column,
    )
    if rule.target_attr is not None:
        if rule.target_attr not in scope.attrs:
            model.report(
                "CA111",
                f"class {class_name!r}: rule targets unknown attribute "
                f"{rule.target_attr!r}",
                rule,
            )
            info.ok = False
        return info
    port = model.all_ports(class_name).get(rule.target_port)
    if port is None:
        model.report(
            "CA111",
            f"class {class_name!r}: rule transmits on unknown port "
            f"{rule.target_port!r}",
            rule,
        )
        info.ok = False
        return info
    rel = model.relationships.get(port.rel_type)
    flow = rel.flows.get(rule.target_value) if rel else None
    if rel is not None and flow is None:
        model.report(
            "CA111",
            f"class {class_name!r}: port {rule.target_port!r} "
            f"carries no value named {rule.target_value!r}",
            rule,
        )
        info.ok = False
    elif flow is not None and flow.sent_by != port.end:
        model.report(
            "CA112",
            f"class {class_name!r}: rule transmits "
            f"{rule.target_value!r} on port {rule.target_port!r}, "
            f"but that value flows {flow.sent_by}-to-"
            f"{'socket' if flow.sent_by == 'plug' else 'plug'}",
            rule,
        )
    return info


# ---------------------------------------------------------------------------
# builder: from a compiled Schema
# ---------------------------------------------------------------------------


def model_from_schema(schema: Schema) -> SchemaModel:
    """Build the analyzer model from compiled schema objects.

    Dependencies come from declared rule inputs; rules compiled from the
    DSL also surface their ASTs (via the interpreter closure) so the type
    and predicate checks can run on them.  Spans are unavailable (0, 0).
    """
    from repro.core.schema import End

    model = SchemaModel()
    model.atoms = set(schema.atoms.names())
    model.functions = set(DEFAULT_FUNCTIONS)
    model.constants = set(DEFAULT_CONSTANTS)

    def dsl(fn: Any) -> dict[str, Any]:
        """The body and resolution a DSL-compiled callable carries."""
        interp = body_of(fn)
        if interp is None:
            return {}
        model.functions.update(interp.functions)
        return {"body": interp.body, "resolution": interp.resolution}

    for rel in schema.relationship_types.values():
        info = RelInfo(rel.name)
        for flow in rel.flows.values():
            info.flows[flow.value] = FlowInfo(
                flow.value, flow.atom, flow.sent_by.value
            )
        model.relationships[rel.name] = info

    for cls in schema.classes.values():
        info = ClassInfo(cls.name, supertype=cls.supertype)
        for attr in cls.attributes.values():
            info.attrs[attr.name] = AttrInfo(
                attr.name, attr.atom, derived=attr.derived, declared_in=cls.name
            )
        for port in cls.ports.values():
            info.ports[port.name] = PortInfo(
                port.name,
                port.rel_type,
                "plug" if port.end is End.PLUG else "socket",
                port.multi,
                declared_in=cls.name,
            )
        for rule in cls.rules:
            if isinstance(rule.target, AttributeTarget):
                target = rule.target.attr
            else:
                target = f"{rule.target.port}>{rule.target.value}"
            deps = _declared_deps(rule.inputs)
            info.rules.append(
                RuleInfo(
                    target=target,
                    class_name=cls.name,
                    display=rule.name or f"{cls.name}.{target}",
                    deps=deps,
                    declared_deps=set(deps),
                    **dsl(rule.body),
                )
            )
        for constraint in cls.constraints:
            deps = _declared_deps(constraint.inputs)
            info.rules.append(
                RuleInfo(
                    target=constraint_attr_name(constraint.name),
                    class_name=cls.name,
                    kind="constraint",
                    display=f"constraint {constraint.name}",
                    deps=deps,
                    declared_deps=set(deps),
                    **dsl(constraint.predicate),
                )
            )
        if cls.predicate is not None:
            deps = _declared_deps(cls.predicate.inputs)
            predicate = RuleInfo(
                target=subtype_attr_name(cls.name),
                class_name=cls.name,
                kind="predicate",
                display=f"subtype predicate of {cls.name}",
                deps=deps,
                declared_deps=set(deps),
                **dsl(cls.predicate.predicate),
            )
            if not isinstance(predicate.body, ast.Block):
                info.where = predicate.body
            info.rules.append(predicate)
        model.classes[cls.name] = info
    return model


def _declared_deps(inputs) -> set[Dep]:
    deps: set[Dep] = set()
    for inp in inputs.values():
        if isinstance(inp, Local):
            deps.add(("local", inp.attr))
        elif isinstance(inp, Received):
            deps.add(("received", inp.port, inp.value))
    return deps
