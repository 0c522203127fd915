"""An instance shape's structure lives in one place: its slot plan.

``Database.depgraph`` is a view computed from slot plans and live
connections, and the rule map, attribute defs and port defs of a shape are
plan fields.  A stored edge set, or a second cache keyed by shape, is a copy
that has to be kept in step by hand -- so this guard, in the style of
``test_single_resolver.py``, fails when one comes back under ``src/repro``.
The stored graph itself is ``tests/references.py::DependencyGraph``, the
reference the view is checked against.
"""

import ast
import pathlib

import repro
from repro.core.database import Database
from repro.workloads import build_chain, sum_node_schema

ROOT = pathlib.Path(repro.__file__).parent

#: mutators of a stored dependency graph: neither defined nor called.
EDGE_MUTATORS = {
    "add_edge",
    "remove_edge",
    "remove_slot",
    "add_rule_edges",
    "remove_rule_edges",
}

#: the stored graph class and the shape caches the plan replaced: not named.
RETIRED = {"DependencyGraph", "_rulemaps", "_attrmaps", "_effective_ports"}

#: the one function allowed to turn an instance's subtype set into a dict key.
SHAPE_KEY_SITE = "compile/slotplan.py:SlotPlanCache.plan_of"


def _named(node: ast.AST) -> str | None:
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return node.name
    return None


def _modules():
    for path in sorted(ROOT.rglob("*.py")):
        yield path.relative_to(ROOT).as_posix(), ast.parse(path.read_text())


def test_no_stored_graph_and_no_second_shape_cache_is_named():
    offenders = sorted(
        f"{module}:{node.lineno} {_named(node)}"
        for module, tree in _modules()
        for node in ast.walk(tree)
        if _named(node) in EDGE_MUTATORS | RETIRED
    )
    assert not offenders, (
        "dependency edges and shape structure are derived from slot plans, "
        f"not stored: {offenders}"
    )


def _hashes_subtype_set(node: ast.AST) -> bool:
    """``tuple(...)`` / ``frozenset(...)`` over an ``active_subtypes`` read."""
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id in ("tuple", "frozenset")
        and any(
            isinstance(inner, ast.Attribute) and inner.attr == "active_subtypes"
            for inner in ast.walk(node)
        )
    )


def test_only_the_plan_cache_keys_a_dict_by_shape():
    sites = set()
    for module, tree in _modules():
        for owner in ast.walk(tree):
            if not isinstance(owner, ast.ClassDef):
                continue
            for func in owner.body:
                if isinstance(func, ast.FunctionDef) and any(
                    _hashes_subtype_set(node) for node in ast.walk(func)
                ):
                    sites.add(f"{module}:{owner.name}.{func.name}")
        for func in tree.body:
            if isinstance(func, ast.FunctionDef) and any(
                _hashes_subtype_set(node) for node in ast.walk(func)
            ):
                sites.add(f"{module}:{func.name}")
    assert sites == {SHAPE_KEY_SITE}


def test_the_view_holds_no_per_slot_state():
    small, large = (Database(sum_node_schema()) for __ in range(2))
    build_chain(small, 2)
    build_chain(large, 200)
    assert len(vars(small.depgraph)) == len(vars(large.depgraph)) == 1
    assert not EDGE_MUTATORS & set(dir(large.depgraph))
    assert sum(1 for __ in large.depgraph.slots()) > 200
