"""One module decides what a name in a rule body refers to.

``repro.dsl.resolve`` binds every ``Name`` and ``FieldRef``; the interpreter,
the code generator and the analyzer passes read those bindings.  A module
that tests ``isinstance(node, ast.Name)`` (or ``ast.FieldRef``) is about to
decide scope for itself again, so this guard -- in the style of
``test_no_environment_reads.py`` -- allows the test only where it is purely
syntactic, function by function, with the reason on record.
"""

import ast
import pathlib

import repro

ROOT = pathlib.Path(repro.__file__).parent

#: ``module:function`` -> why a syntactic Name/FieldRef test is fine there.
ALLOWED = {
    "dsl/resolve.py:expr": "the resolver itself",
    "dsl/parser.py:parse_postfix": "builds Call/FieldRef nodes from a parsed Name",
    "dsl/printer.py:format_expr": "prints the identifier back, no lookup",
    "dsl/query.py:_sarg_shape": "matches the `attr <op> literal` shape of a conjunct",
    "analysis/dataflow.py:_bound_of": "normalises `name <op> constant` comparisons",
    "analysis/predicates.py:_boolean_shaped": "keys a propositional variable by its text",
}

#: consumers of rule bodies that must read bindings, never test node types.
NEVER = {
    "dsl/compiler.py",
    "compile/codegen.py",
    "analysis/model.py",
    "analysis/typecheck.py",
}

#: the two mirror walkers the resolver replaced (spelled in halves so a grep
#: for them over src/, tests/ and docs/ stays empty).
RETIRED = ("_Dep" + "Walker", "_Dependency" + "Analysis")


def _mentions_name_node(type_arg: ast.expr) -> bool:
    return any(
        isinstance(node, ast.Attribute) and node.attr in ("Name", "FieldRef")
        for node in ast.walk(type_arg)
    )


def _sites() -> set[str]:
    """Every ``module:function`` that isinstance-tests for Name/FieldRef."""
    found: set[str] = set()
    for path in sorted(ROOT.rglob("*.py")):
        module = path.relative_to(ROOT).as_posix()
        tree = ast.parse(path.read_text())
        for func in ast.walk(tree):
            if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for node in ast.walk(func):
                if (
                    isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Name)
                    and node.func.id == "isinstance"
                    and len(node.args) == 2
                    and _mentions_name_node(node.args[1])
                ):
                    found.add(f"{module}:{func.name}")
    return found


def test_only_allow_listed_functions_test_for_name_nodes():
    assert not {key.split(":")[0] for key in ALLOWED} & NEVER
    sites = _sites()
    assert sites - ALLOWED.keys() == set(), (
        "resolve names through repro.dsl.resolve bindings instead of "
        f"testing node types: {sorted(sites - ALLOWED.keys())}"
    )
    assert ALLOWED.keys() - sites == set(), "stale allow-list entries"


def test_the_mirror_walkers_stay_deleted():
    offenders = sorted(
        str(path.relative_to(ROOT))
        for path in ROOT.rglob("*.py")
        if any(name in path.read_text() for name in RETIRED)
    )
    assert not offenders, f"retired walkers are back: {offenders}"
