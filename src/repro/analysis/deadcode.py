"""Dead-code analysis: attributes, ports, flows, and rules nothing reads.

"Dead" is relative to the schema itself -- applications can still query any
attribute -- so the severities are deliberately soft.  Derived attributes
and transmitted values exist precisely to be consumed *somewhere*; when the
schema contains no consumer the declaration is at best a query output and
at worst a typo, which is worth a warning:

* **CA401** intrinsic attribute never read by any rule/constraint/predicate
  (warning -- pure stored data is legitimate but worth an audit).
* **CA402** derived attribute never read by another rule (info -- it is
  usually a query output, like ``up_to_date`` in Figure 4).
* **CA403** port never used by any rule: nothing received, nothing
  transmitted, no ``For Each`` (warning).
* **CA404** a port's end is declared to send a value but the class has no
  transmit rule for it -- receivers see the atom's default (info).
* **CA405** a relationship value no class transmits *or* consumes
  (warning).
* **CA406** a rule declares an input it never uses (warning; only
  checkable when both declared inputs and a body AST are available).
* **CA407** a transmitted value no opposite-end class consumes (warning).
"""

from __future__ import annotations

from repro.analysis.diagnostics import Diagnostic
from repro.analysis.model import SchemaModel, dep_spans

def check(model: SchemaModel) -> list[Diagnostic]:
    diagnostics: list[Diagnostic] = []
    read_attrs: set[tuple[str, str]] = set()  # (declaring class, attr)
    used_ports: set[tuple[str, str]] = set()  # (declaring class, port)
    consumed: set[tuple[str, str]] = set()  # (rel_type, value)
    #: (rel_type, end, value) transmitted by some class's rule
    transmitted: set[tuple[str, str, str]] = set()

    for cls_name, cls in model.classes.items():
        attrs = model.all_attrs(cls_name)
        ports = model.all_ports(cls_name)
        for rule in cls.rules:
            if rule.is_transmit:
                port = ports.get(rule.target.partition(">")[0])
                if port is not None:
                    used_ports.add((port.declared_in, port.name))
                    transmitted.add(
                        (port.rel_type, port.end, rule.target.partition(">")[2])
                    )
            for dep in rule.deps:
                if dep[0] == "local":
                    attr = attrs.get(dep[1])
                    if attr is not None:
                        read_attrs.add((attr.declared_in, attr.name))
                elif dep[0] == "received":
                    port = ports.get(dep[1])
                    if port is not None:
                        used_ports.add((port.declared_in, port.name))
                        consumed.add((port.rel_type, dep[2]))

    for cls_name, cls in model.classes.items():
        for attr in cls.attrs.values():
            if (attr.declared_in, attr.name) in read_attrs:
                continue
            if attr.derived:
                diagnostics.append(
                    Diagnostic(
                        "CA402",
                        f"class {cls_name!r}: derived attribute "
                        f"{attr.name!r} is never read by another rule "
                        f"(query output?)",
                        attr.line,
                        attr.column,
                    )
                )
            else:
                diagnostics.append(
                    Diagnostic(
                        "CA401",
                        f"class {cls_name!r}: intrinsic attribute "
                        f"{attr.name!r} is never read by any rule, "
                        f"constraint, or predicate",
                        attr.line,
                        attr.column,
                    )
                )
        for port in cls.ports.values():
            if (port.declared_in, port.name) not in used_ports:
                diagnostics.append(
                    Diagnostic(
                        "CA403",
                        f"class {cls_name!r}: port {port.name!r} is never "
                        f"used by any rule (connections through it only "
                        f"structure the graph)",
                        port.line,
                        port.column,
                    )
                )

    # CA404: sending ends with no transmit rule for a declared value.
    for cls_name, cls in model.classes.items():
        rules = model.effective_rules(cls_name)
        for port in model.all_ports(cls_name).values():
            rel = model.relationships.get(port.rel_type)
            if rel is None:
                continue
            for flow in rel.sent_by_end(port.end):
                if f"{port.name}>{flow.value}" not in rules:
                    diagnostics.append(
                        Diagnostic(
                            "CA404",
                            f"class {cls_name!r}: port {port.name!r} never "
                            f"transmits {flow.value!r}; receivers see the "
                            f"{flow.atom!r} default",
                            port.line,
                            port.column,
                        )
                    )

    # CA405 / CA407: flows nobody consumes.
    for rel in model.relationships.values():
        for flow in rel.flows.values():
            if (rel.name, flow.value) in consumed:
                continue
            senders = [
                (cls_name, slot)
                for cls_name, cls in model.classes.items()
                for slot in (r.target for r in cls.rules if r.is_transmit)
                if slot.endswith(f">{flow.value}")
                and (
                    p := model.all_ports(cls_name).get(slot.partition(">")[0])
                )
                is not None
                and p.rel_type == rel.name
            ]
            if not senders:
                diagnostics.append(
                    Diagnostic(
                        "CA405",
                        f"relationship {rel.name!r}: value {flow.value!r} "
                        f"is never transmitted or consumed by any class",
                        flow.line,
                        flow.column,
                    )
                )
                continue
            for cls_name, slot in senders:
                rule = next(
                    r
                    for r in model.classes[cls_name].rules
                    if r.target == slot
                )
                diagnostics.append(
                    Diagnostic(
                        "CA407",
                        f"class {cls_name!r}: transmitted value "
                        f"{slot!r} has no consumer on the opposite end of "
                        f"relationship {rel.name!r}",
                        rule.line,
                        rule.column,
                    )
                )

    diagnostics.extend(_unused_inputs(model))
    return diagnostics


def _unused_inputs(model: SchemaModel) -> list[Diagnostic]:
    """CA406: declared inputs (Schema path) the body AST never references.

    DSL-compiled rules derive their inputs from the body, so the two sets
    match by construction; hand-built rules that *declare* more than they
    read subscribe to spurious change propagation.
    """
    diagnostics: list[Diagnostic] = []
    for cls_name, cls in model.classes.items():
        for rule in cls.rules:
            if rule.declared_deps is None or rule.resolution is None:
                continue
            read = dep_spans(rule.resolution)
            for dep in sorted(rule.declared_deps - read.keys()):
                if dep[0] == "local":
                    what = f"Local({dep[1]!r})"
                else:
                    what = f"Received({dep[1]!r}, {dep[2]!r})"
                diagnostics.append(
                    Diagnostic(
                        "CA406",
                        f"class {cls_name!r}: rule for "
                        f"{rule.display or rule.target!r} declares input "
                        f"{what} but never uses it",
                        rule.line,
                        rule.column,
                    )
                )
    return diagnostics
