"""A query reads its inputs one way: through ``Database.read_inputs``.

``Predicate.on_view`` over ``Database.view`` is the per-view, per-input
``get_attr`` chain -- the naive reference that ``Query.run_scan`` keeps so
``run(db) == run_scan(db)`` compares two independent paths.  Production
query paths read plan slots directly instead.  This guard, in the style of
``test_single_structure.py``, fails when a second caller of either comes
back under ``src/repro``.

``Database.read_inputs`` itself has no loop: it runs the reader
``repro.compile.codegen.compile_reader`` generates for the inputs'
signature, for ``Predicate.select`` (with the ``where`` body) and for the
order keys (with none), and a candidate the reader cannot read in place
takes ``Database._read_candidate``.  The second half of this module pins
that, that no other loop under ``src/repro`` reads stored values against
the marks, and the generated source for one signature byte for byte.
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


# -- the candidate reader ----------------------------------------------------

#: who may call (or hand on) the reader's pieces, by ``module:Owner.function``.
READER_SITES = {
    "read_inputs": {"core/predicates.py:Predicate.select", "dsl/query.py:Query._order_and_limit"},
    "compile_reader": {"core/database.py:Database.read_inputs"},
    "_read_candidate": {"core/database.py:Database.read_inputs"},
}


def _functions():
    """``(module:Owner.function, node)`` for every function under ``src/repro``."""
    for path in sorted(ROOT.rglob("*.py")):
        module = path.relative_to(ROOT).as_posix()

        def visit(node, scope):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    yield f"{module}:{'.'.join(scope + [child.name])}", child
                    yield from visit(child, scope + [child.name])
                elif isinstance(child, ast.ClassDef):
                    yield from visit(child, scope + [child.name])
                else:
                    yield from visit(child, scope)

        yield from visit(ast.parse(path.read_text()), [])


def _uses(fn: ast.AST, name: str) -> bool:
    return any(
        (isinstance(node, ast.Attribute) and node.attr == name)
        or (isinstance(node, ast.Name) and node.id == name)
        for node in ast.walk(fn)
    )


def _direct_nodes(fn: ast.AST):
    """The function's own nodes, nested function bodies left out."""
    for child in ast.iter_child_nodes(fn):
        if not isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            yield child
            yield from _direct_nodes(child)


def test_one_generated_reader_serves_every_query_read():
    functions = dict(_functions())
    for name, allowed in READER_SITES.items():
        sites = {
            site
            for site, fn in functions.items()
            if any(
                isinstance(node, (ast.Attribute, ast.Name))
                and (getattr(node, "attr", None) or getattr(node, "id", None)) == name
                for node in _direct_nodes(fn)
            )
        }
        assert sites == allowed, (name, sites)
    # read_inputs hands the candidates to the generated reader: no loop of its own.
    read_inputs = functions["core/database.py:Database.read_inputs"]
    assert not any(isinstance(n, (ast.For, ast.While)) for n in _direct_nodes(read_inputs))
    # The slow step reads one candidate: its one loop runs over the inputs.
    slow = functions["core/database.py:Database._read_candidate"]
    loops = [n for n in _direct_nodes(slow) if isinstance(n, (ast.For, ast.While))]
    assert [ast.unparse(loop.iter) for loop in loops] == ["inputs"]


def test_no_second_per_candidate_loop():
    """No loop under ``src/repro`` reads stored values and tests the marks
    itself -- the shape of a hand-written query reader -- except the slow
    step's loop over one candidate's inputs, pinned above."""
    offenders = []
    for site, fn in _functions():
        for loop in (n for n in _direct_nodes(fn) if isinstance(n, (ast.For, ast.While))):
            if site == "core/database.py:Database._read_candidate":
                continue
            if _uses(loop, "attrs") and (_uses(loop, "out_of_date") or _uses(loop, "marked")):
                offenders.append(f"{site}:{loop.lineno}")
    assert not offenders, offenders


def test_select_and_order_keys_run_generated_readers(monkeypatch):
    """A filtered, ordered scan reads through two generated readers: the
    ``where`` inputs with its body, then the order key with none."""
    from repro.core import database
    from repro.dsl import compile_schema
    from repro.dsl.query import compile_query
    from repro.env.milestones import MILESTONE_SCHEMA

    schema = compile_schema(MILESTONE_SCHEMA)
    db = database.Database(schema)
    for n in range(6):
        db.create("milestone", sched_compl=n, local_work=1 + n % 3)
    calls = []
    real = database.compile_reader

    def spy(kinds):
        reader = real(kinds)

        def traced(iids, names, inputs, body, limit, *rest):
            calls.append((kinds, names, body is not None, limit))
            return reader(iids, names, inputs, body, limit, *rest)

        return traced

    monkeypatch.setattr(database, "compile_reader", spy)
    query = compile_query(schema, "select milestone where late or local_work > 1 order by local_work")
    assert query.plan(db).access_path == "scan"
    assert query.run(db) == query.run_scan(db)
    assert calls == [
        (("L", "L"), ("late", "local_work"), True, None),
        (("L",), ("local_work",), False, None),
    ]


GOLDEN_READER = '''\
def _reader(iids, names, inputs, body, limit, instance_of, cached_plan, marked, counters, placement, frames, stats, accesses, touch, slow):
    n0, n2 = names
    move_to_end = frames.move_to_end
    missing = _MISSING
    out = []
    for iid in iids:
        instance = instance_of(iid)
        plan = cached_plan(iid)
        if instance is None or plan is None:
            v0, v1, v2 = slow(iid, inputs)
        else:
            attrs = instance.attrs
            attributes = plan.attributes
            v0 = attrs.get(n0, missing)
            v1 = iid
            v2 = attrs.get(n2, missing)
            if v0 is not missing and n0 in attributes and (iid, n0) not in marked and v2 is not missing and n2 in attributes and (iid, n2) not in marked:
                counters.demands += 2
                block = placement(iid)
                if block in frames:
                    stats.hits += 1
                    move_to_end(block)
                    accesses[iid] += 1
                else:
                    touch(iid)
            else:
                v0, v1, v2 = slow(iid, inputs)
        if body is None:
            out.append((v0, v1, v2))
        elif body(v0, v1, v2):
            out.append(iid)
            if len(out) == limit:
                break
    return out
'''


def test_reader_source_is_byte_stable():
    from repro.compile.codegen import compile_reader, reader_source

    assert reader_source(("L", "S", "L")) == GOLDEN_READER
    assert compile_reader(("L", "S", "L")) is compile_reader(("L", "S", "L"))
