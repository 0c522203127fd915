"""A query reads its inputs one way: through ``Database.read_inputs``.

``Predicate.on_view`` over ``Database.view`` is the per-view, per-input
``get_attr`` chain -- the naive reference that ``Query.run_scan`` keeps so
``run(db) == run_scan(db)`` compares two independent paths.  Production
query paths read plan slots directly instead.  This guard, in the style of
``test_single_structure.py``, fails when a second caller of either comes
back under ``src/repro``.
"""

import ast
import pathlib

import repro

ROOT = pathlib.Path(repro.__file__).parent

#: the reference path's entry points, and the one function that may call them.
REFERENCE_CALLS = {"on_view", "view"}
ALLOWED_SITE = "dsl/query.py:Query.run_scan"


def _call_sites(module: str, tree: ast.AST):
    """``module:Owner.function`` for every call of a reference entry point."""

    def visit(node: ast.AST, scope: list[str]):
        if isinstance(node, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            scope = scope + [node.name]
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in REFERENCE_CALLS
        ):
            yield f"{module}:{'.'.join(scope)}", node.func.attr, node.lineno
        for child in ast.iter_child_nodes(node):
            yield from visit(child, scope)

    yield from visit(tree, [])


def test_only_run_scan_reads_through_views():
    sites = [
        (site, name, line)
        for path in sorted(ROOT.rglob("*.py"))
        for site, name, line in _call_sites(
            path.relative_to(ROOT).as_posix(), ast.parse(path.read_text())
        )
    ]
    offenders = [f"{site}:{line} .{name}()" for site, name, line in sites if site != ALLOWED_SITE]
    assert not offenders, (
        "query inputs are read through Database.read_inputs; on_view/view "
        f"belong to the run_scan reference only: {offenders}"
    )
    # The reference itself still exists and still uses both.
    assert {name for site, name, __ in sites if site == ALLOWED_SITE} == REFERENCE_CALLS
