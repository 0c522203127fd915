"""An instance shape's structure lives in one place: its slot plan.

``Database.depgraph`` is a view computed from slot plans and live
connections, and the rule map, attribute defs and port defs of a shape are
plan fields.  A stored edge set, or a second cache keyed by shape, is a copy
that has to be kept in step by hand -- so this guard, in the style of
``test_single_resolver.py``, fails when one comes back under ``src/repro``.
The stored graph itself is ``tests/references.py::DependencyGraph``, the
reference the view is checked against.

A durable record has one path too: ``Database.apply`` is the only code that
turns a log record into database state (abort, Undo, version checkout and
recovery reach it through ``TransactionManager.replay``), and one
``PersistenceManager`` method appends to the WAL.  The record codec
(``storage/codec.py``) and the record definitions (``txn/log.py``) are the
only other modules that test a record's class.
"""

import ast
import pathlib
import re

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


# ---------------------------------------------------------------------------
# one record path
# ---------------------------------------------------------------------------

RECORD_CLASSES = {
    "SetAttrRecord",
    "CreateRecord",
    "DeleteRecord",
    "ConnectRecord",
    "DisconnectRecord",
}

#: where a record's class may be tested: its one interpreter, the codec
#: and the module that defines the records.
RECORD_TEST_SITES = {"core/database.py:Database.apply"}
RECORD_TEST_MODULES = {"storage/codec.py", "txn/log.py"}

#: the one function that appends to the WAL.
WAL_APPEND_SITE = "persistence/manager.py:PersistenceManager._journal"

#: the second interpreters, replay entries and payload builders the record
#: path replaced: not an identifier under ``src/repro``.
RETIRED_RECORD_PATH = {
    "apply_inverse",
    "apply_forward",
    "_apply_inverse",
    "apply_inverse_delta",
    "encode_commit_payload",
    "encode_undo_payload",
    "encode_reorg_begin_payload",
    "encode_reorg_step_payload",
    "encode_reorg_end_payload",
    "encode_fed_send_payload",
    "encode_fed_ack_payload",
    "encode_fed_recv_payload",
    "encode_fed_migrate_payload",
    "decode_wal_payload",
    "REORG_PAYLOAD_TYPES",
    "FED_PAYLOAD_TYPES",
    "_log_reorg",
    "_log_fed",
    "record_send",
    "record_ack",
    "record_recv",
}


def _sites(matches):
    """``module:Owner.func`` (or ``module:<module>``) of every node for
    which ``matches(node)`` holds."""
    found = set()

    def visit(node, module, scope):
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                inner = f"{scope}.{child.name}" if scope else child.name
            if matches(child):
                found.add(f"{module}:{inner or '<module>'}")
            visit(child, module, inner)

    for module, tree in _modules():
        visit(tree, module, "")
    return found


def _tests_record_class(node: ast.AST) -> bool:
    if isinstance(node, ast.MatchClass):
        return _named(node.cls) in RECORD_CLASSES
    if (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id == "isinstance"
        and len(node.args) == 2
    ):
        return any(_named(inner) in RECORD_CLASSES for inner in ast.walk(node.args[1]))
    return False


def test_only_the_interpreter_and_the_codec_test_a_record_class():
    sites = _sites(_tests_record_class)
    outside = {
        site
        for site in sites
        if site not in RECORD_TEST_SITES
        and site.split(":")[0] not in RECORD_TEST_MODULES
    }
    assert not outside, f"a second record interpreter: {sorted(outside)}"
    assert RECORD_TEST_SITES <= sites


def _appends_to_a_wal(node: ast.AST) -> bool:
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "append"
        and re.search(r"(^|_)wal$", _named(node.func.value) or "") is not None
    )


def test_one_function_appends_to_the_wal():
    assert _sites(_appends_to_a_wal) == {WAL_APPEND_SITE}


def test_no_retired_record_path_name_is_an_identifier():
    offenders = sorted(
        f"{module}:{getattr(node, 'lineno', '?')} {name}"
        for module, tree in _modules()
        for node in ast.walk(tree)
        for name in [node.name if isinstance(node, ast.alias) else _named(node)]
        if name in RETIRED_RECORD_PATH
    )
    assert not offenders, f"the record path has one of each: {offenders}"
