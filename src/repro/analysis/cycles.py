"""Static cycle detection over the class-level rule-dependency graph.

The evaluation engine maintains a dependency graph over *instance* slots and
rejects cycles at connect time or demand time (``CycleError``).  This pass
lifts the same graph to the *class* level -- one node per ``(class, slot)``,
one edge per declared rule dependency -- and classifies its strongly
connected components:

* **CA201** (error): a cycle using only local (same-instance) edges.  Every
  instance of the class evaluates its rules in a loop, so the first demand
  raises ``CycleError`` unconditionally.  Caught here at schema time.
* **CA202** (error): a cycle closed by a *single* relationship connection.
  A transmit rule on a port consumes a value received on the same port, and
  a class on the opposite end does the mirror image; connecting any two
  such instances creates an instance-level cycle immediately.  Also caught
  statically.
* **CA203** (info): the remaining recursive shapes (Figure 1's milestones:
  ``exp_compl`` feeds ``consists_of>exp_time`` which feeds downstream
  ``exp_compl``).  Instance cycles require a cyclic *connection topology*,
  which the database rejects at connect time, so recursion over a DAG is
  the intended use -- reported for information only.

Received-value edges are conservative: a consumer is linked to every class
that can transmit the value on the opposite end of the relationship type.
"""

from __future__ import annotations

from typing import Iterable

from repro.analysis.diagnostics import Diagnostic
from repro.analysis.model import RuleInfo, SchemaModel

#: graph node -- (resolved class name, slot name)
Node = tuple[str, str]


def check(model: SchemaModel) -> list[Diagnostic]:
    graph = _ClassGraph(model)
    diagnostics: list[Diagnostic] = []
    reported_nodes: set[Node] = set()
    seen_signatures: set[frozenset] = set()

    # CA202 first: the pattern is detected pairwise, independent of SCCs.
    for message, rule, nodes in _single_connection_cycles(model, graph):
        diagnostics.append(
            Diagnostic("CA202", message, rule.line, rule.column)
        )
        reported_nodes.update(nodes)

    for component in _sccs(graph):
        if len(component) == 1:
            node = next(iter(component))
            if node not in graph.edges.get(node, {}):
                continue  # trivial SCC, no self-loop
        signature = frozenset(
            (graph.rule_of[n].class_name, n[1]) for n in component
            if n in graph.rule_of
        )
        if signature in seen_signatures:
            continue  # same rule set inherited by several classes
        seen_signatures.add(signature)

        local_cycle = _local_cycle(graph, component)
        if local_cycle is not None:
            rule = graph.rule_of.get(local_cycle[0])
            path = " -> ".join(slot for (_, slot) in local_cycle)
            cls = local_cycle[0][0]
            diagnostics.append(
                Diagnostic(
                    "CA201",
                    f"class {cls!r}: rule-dependency cycle {path} -> "
                    f"{local_cycle[0][1]}; every instance raises CycleError "
                    f"on first evaluation",
                    rule.line if rule else 0,
                    rule.column if rule else 0,
                )
            )
            reported_nodes.update(component)
            continue
        if component & reported_nodes:
            continue  # already covered by a CA202 report
        rels = sorted(
            {
                info[0]
                for src in component
                for dst, info in graph.edges.get(src, {}).items()
                if dst in component and info is not None
            }
        )
        witness = _witness(graph, component)
        path = " -> ".join(f"{c}.{s}" for c, s in witness)
        anchor = graph.rule_of.get(witness[0])
        diagnostics.append(
            Diagnostic(
                "CA203",
                f"derivation is recursive through relationship"
                f"{'s' if len(rels) != 1 else ''} "
                + ", ".join(repr(r) for r in rels)
                + f" ({path} -> {witness[0][0]}.{witness[0][1]}); instance "
                f"cycles are rejected at connect time",
                anchor.line if anchor else 0,
                anchor.column if anchor else 0,
            )
        )
    return diagnostics


class _ClassGraph:
    """Edges between (class, slot) nodes; edge payload is the crossed
    relationship ``(rel_type,)`` or ``None`` for local edges."""

    def __init__(self, model: SchemaModel) -> None:
        self.model = model
        self.edges: dict[Node, dict[Node, tuple | None]] = {}
        self.rule_of: dict[Node, RuleInfo] = {}
        #: transmitters[(rel_type, end, value)] -> [(class, port)]
        self.transmitters: dict[tuple, list[tuple[str, str]]] = {}
        self._build()

    def _link(self, src: Node, dst: Node, info: tuple | None) -> None:
        self.edges.setdefault(src, {})[dst] = info
        self.edges.setdefault(dst, {})

    def _build(self) -> None:
        model = self.model
        resolved = {
            name: model.effective_rules(name) for name in model.classes
        }
        for cls_name, rules in resolved.items():
            ports = model.all_ports(cls_name)
            for slot, rule in rules.items():
                if ">" in slot:
                    port_name, __, value = slot.partition(">")
                    port = ports.get(port_name)
                    if port is not None:
                        self.transmitters.setdefault(
                            (port.rel_type, port.end, value), []
                        ).append((cls_name, port_name))
        for cls_name, rules in resolved.items():
            ports = model.all_ports(cls_name)
            for slot, rule in rules.items():
                dst = (cls_name, slot)
                self.rule_of[dst] = rule
                self.edges.setdefault(dst, {})
                for dep in rule.deps:
                    if dep[0] == "local":
                        self._link((cls_name, dep[1]), dst, None)
                    elif dep[0] == "received":
                        __, port_name, value = dep
                        port = ports.get(port_name)
                        if port is None:
                            continue
                        opposite = "socket" if port.end == "plug" else "plug"
                        for sender, sender_port in self.transmitters.get(
                            (port.rel_type, opposite, value), ()
                        ):
                            self._link(
                                (sender, f"{sender_port}>{value}"),
                                dst,
                                (port.rel_type,),
                            )


def _sccs(graph: _ClassGraph) -> list[set[Node]]:
    """Tarjan's strongly connected components, iteratively."""
    index: dict[Node, int] = {}
    low: dict[Node, int] = {}
    on_stack: set[Node] = set()
    stack: list[Node] = []
    result: list[set[Node]] = []
    counter = 0

    for root in list(graph.edges):
        if root in index:
            continue
        work: list[tuple[Node, Iterable[Node]]] = [
            (root, iter(list(graph.edges.get(root, ()))))
        ]
        index[root] = low[root] = counter
        counter += 1
        stack.append(root)
        on_stack.add(root)
        while work:
            node, successors = work[-1]
            advanced = False
            for nxt in successors:
                if nxt not in index:
                    index[nxt] = low[nxt] = counter
                    counter += 1
                    stack.append(nxt)
                    on_stack.add(nxt)
                    work.append((nxt, iter(list(graph.edges.get(nxt, ())))))
                    advanced = True
                    break
                if nxt in on_stack:
                    low[node] = min(low[node], index[nxt])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[node])
            if low[node] == index[node]:
                component: set[Node] = set()
                while True:
                    member = stack.pop()
                    on_stack.discard(member)
                    component.add(member)
                    if member == node:
                        break
                result.append(component)
    return result


def _local_cycle(graph: _ClassGraph, component: set[Node]) -> list[Node] | None:
    """A cycle inside ``component`` using local edges only, or None."""

    def local_successors(node: Node) -> list[Node]:
        return [
            dst
            for dst, info in graph.edges.get(node, {}).items()
            if info is None and dst in component
        ]

    from repro.graph.cycles import find_cycle

    return find_cycle(sorted(component), local_successors)


def _witness(graph: _ClassGraph, component: set[Node]) -> list[Node]:
    """Any cycle within the component, for the CA203 message."""

    def successors(node: Node) -> list[Node]:
        return [d for d in graph.edges.get(node, ()) if d in component]

    from repro.graph.cycles import find_cycle

    cycle = find_cycle(sorted(component), successors)
    return cycle if cycle else sorted(component)


def _single_connection_cycles(model: SchemaModel, graph: _ClassGraph):
    """Yield (message, anchor_rule, involved_nodes) per CA202 pattern.

    ``feedback[(class, port)]`` maps transmitted value ``v`` to the received
    values ``w`` (on the same port) that ``port>v`` transitively depends on
    through same-instance edges.  Two mirror-image feedbacks across one
    relationship type mean a single connection closes an instance cycle.
    """
    feedbacks: dict[tuple[str, str], dict[str, set[str]]] = {}
    port_meta: dict[tuple[str, str], tuple[str, str]] = {}

    for cls_name in model.classes:
        rules = model.effective_rules(cls_name)
        ports = model.all_ports(cls_name)
        # Within-class reachability: received marker -> slots.
        internal: dict[tuple, set[str]] = {}
        local_edges: dict[str, set[str]] = {}
        for slot, rule in rules.items():
            for dep in rule.deps:
                if dep[0] == "local":
                    local_edges.setdefault(dep[1], set()).add(slot)
                elif dep[0] == "received":
                    internal.setdefault(dep, set()).add(slot)
        for recv, seeds in internal.items():
            reached: set[str] = set()
            frontier = list(seeds)
            while frontier:
                slot = frontier.pop()
                if slot in reached:
                    continue
                reached.add(slot)
                frontier.extend(local_edges.get(slot, ()))
            internal[recv] = reached
        for slot in rules:
            if ">" not in slot:
                continue
            port_name, __, value = slot.partition(">")
            port = ports.get(port_name)
            if port is None:
                continue
            port_meta[(cls_name, port_name)] = (port.rel_type, port.end)
            for recv, reached in internal.items():
                __, recv_port, recv_value = recv
                if recv_port == port_name and slot in reached:
                    feedbacks.setdefault((cls_name, port_name), {}).setdefault(
                        value, set()
                    ).add(recv_value)

    emitted: set[frozenset] = set()
    for (cls_a, port_a), by_value in sorted(feedbacks.items()):
        rel_a, end_a = port_meta[(cls_a, port_a)]
        for (cls_b, port_b), by_value_b in sorted(feedbacks.items()):
            rel_b, end_b = port_meta[(cls_b, port_b)]
            if rel_a != rel_b or end_a == end_b:
                continue
            for v, consumed in sorted((k, sorted(vs)) for k, vs in by_value.items()):
                for w in consumed:
                    if v not in by_value_b.get(w, ()):
                        continue
                    key = frozenset(
                        [(cls_a, port_a, v), (cls_b, port_b, w)]
                    )
                    if key in emitted:
                        continue
                    emitted.add(key)
                    nodes = {
                        (cls_a, f"{port_a}>{v}"),
                        (cls_b, f"{port_b}>{w}"),
                    }
                    rule = graph.rule_of.get((cls_a, f"{port_a}>{v}"))
                    message = (
                        f"connecting any {cls_a}.{port_a} to any "
                        f"{cls_b}.{port_b} creates a dependency cycle: "
                        f"{cls_a}.{port_a}>{v} -> {cls_b}.{port_b}>{w} -> "
                        f"{cls_a}.{port_a}>{v} (relationship {rel_a!r}); "
                        f"previously this only surfaced as a runtime "
                        f"CycleError"
                    )
                    yield message, rule or RuleInfo(
                        target="", class_name=cls_a
                    ), nodes
