"""Control-flow graphs for the mini language.

One CFG node per executable statement, plus synthetic ``entry`` and
``exit`` nodes.  ``if`` and ``while`` contribute their condition as a node
(it reads variables) with two successor paths; ``while`` produces the back
edge that makes the graph cyclic.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.env.flow import minilang as ml


@dataclass
class CfgNode:
    """One flow-graph node."""

    node_id: int
    kind: str  # "entry" | "exit" | "assign" | "print" | "cond"
    label: str
    #: variable defined here, if any (assignments only).
    defines: str | None = None
    #: variables read here.
    uses: frozenset[str] = frozenset()
    successors: list[int] = field(default_factory=list)
    predecessors: list[int] = field(default_factory=list)


class ControlFlowGraph:
    """CFG with entry node 0 and exit node 1."""

    def __init__(self) -> None:
        self.nodes: dict[int, CfgNode] = {}
        self.entry = self._add("entry", "ENTRY")
        self.exit = self._add("exit", "EXIT")

    def _add(
        self,
        kind: str,
        label: str,
        defines: str | None = None,
        uses: frozenset[str] = frozenset(),
    ) -> int:
        node_id = len(self.nodes)
        self.nodes[node_id] = CfgNode(node_id, kind, label, defines, uses)
        return node_id

    def link(self, src: int, dst: int) -> None:
        if dst not in self.nodes[src].successors:
            self.nodes[src].successors.append(dst)
            self.nodes[dst].predecessors.append(src)

    def node(self, node_id: int) -> CfgNode:
        return self.nodes[node_id]

    def statement_nodes(self) -> list[CfgNode]:
        """Nodes that correspond to program statements (not entry/exit)."""
        return [n for n in self.nodes.values() if n.kind not in ("entry", "exit")]

    def has_cycle(self) -> bool:
        """True when any back edge exists (i.e. the program loops)."""
        WHITE, GRAY, BLACK = 0, 1, 2
        colour = {nid: WHITE for nid in self.nodes}
        stack = [(self.entry, iter(self.nodes[self.entry].successors))]
        colour[self.entry] = GRAY
        while stack:
            nid, successors = stack[-1]
            advanced = False
            for succ in successors:
                if colour[succ] == GRAY:
                    return True
                if colour[succ] == WHITE:
                    colour[succ] = GRAY
                    stack.append((succ, iter(self.nodes[succ].successors)))
                    advanced = True
                    break
            if not advanced:
                colour[nid] = BLACK
                stack.pop()
        return False


def build_cfg(program: ml.Program) -> ControlFlowGraph:
    """Construct the CFG of a parsed program."""
    cfg = ControlFlowGraph()

    def render(expr: ml.MExpr) -> str:
        if isinstance(expr, ml.Num):
            return str(expr.value)
        if isinstance(expr, ml.Var):
            return expr.name
        return f"({render(expr.left)} {expr.op} {render(expr.right)})"

    def wire(stmts: tuple[ml.MStmt, ...], preds: list[int]) -> list[int]:
        """Attach ``stmts`` after ``preds``; returns the new frontier."""
        frontier = preds
        for stmt in stmts:
            if isinstance(stmt, ml.Assign):
                node = cfg._add(
                    "assign",
                    f"{stmt.name} = {render(stmt.value)}",
                    defines=stmt.name,
                    uses=frozenset(ml.variables_used(stmt.value)),
                )
                for p in frontier:
                    cfg.link(p, node)
                frontier = [node]
            elif isinstance(stmt, ml.Print):
                node = cfg._add(
                    "print",
                    f"print({render(stmt.value)})",
                    uses=frozenset(ml.variables_used(stmt.value)),
                )
                for p in frontier:
                    cfg.link(p, node)
                frontier = [node]
            elif isinstance(stmt, ml.If):
                cond = cfg._add(
                    "cond",
                    f"if {render(stmt.cond)}",
                    uses=frozenset(ml.variables_used(stmt.cond)),
                )
                for p in frontier:
                    cfg.link(p, cond)
                then_exit = wire(stmt.then_body, [cond])
                if stmt.else_body:
                    else_exit = wire(stmt.else_body, [cond])
                    frontier = then_exit + else_exit
                else:
                    frontier = then_exit + [cond]
            elif isinstance(stmt, ml.While):
                cond = cfg._add(
                    "cond",
                    f"while {render(stmt.cond)}",
                    uses=frozenset(ml.variables_used(stmt.cond)),
                )
                for p in frontier:
                    cfg.link(p, cond)
                body_exit = wire(stmt.body, [cond])
                for p in body_exit:
                    cfg.link(p, cond)  # the back edge
                frontier = [cond]
            else:  # pragma: no cover - exhaustive over MStmt
                raise TypeError(f"unknown statement {stmt!r}")
        return frontier

    frontier = wire(program.body, [cfg.entry])
    for p in frontier:
        cfg.link(p, cfg.exit)
    return cfg
