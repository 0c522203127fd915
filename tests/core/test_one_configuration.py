"""The engine ships in one configuration, measured by one harness.

``Database`` takes sizing plus ``engine_factory`` (the seam through which a
test substitutes a reference engine); the engine and the chunk scheduler
take no option at all.  The alternatives the paper argues against --
fixed FIFO/LIFO traversal orders, eager draining, trigger and
full-recompute engines -- are references in ``tests/references.py``, and
every engine a ``Database`` can hold is an ``IncrementalEngine``, so
``src/`` never probes one for a missing method.  Engine work has one form,
the ``(kind, slot, extra)`` tuple, scheduled one way and run by one runner.
A DSL body has one backend: it is a generated closure (``CompiledBody``)
from the moment it is compiled from source -- the tree-walking interpreter
is a test-side reference, and nothing is swapped at freeze.  This guard,
in the style of ``test_no_environment_reads.py`` and
``test_single_structure.py``, fails when a switch, a probe, a second form
of work, a second rule backend, the baselines package or the second
benchmark tree comes back.
"""

import ast
import inspect
import pathlib

import repro
from repro.compile import CompiledBody
from repro.core.database import Database
from repro.dsl import compile_query, compile_schema
from repro.evaluation.engine import IncrementalEngine
from repro.evaluation.scheduler import ChunkScheduler

SRC = pathlib.Path(repro.__file__).parent
REPO = pathlib.Path(__file__).parents[2]

SIGNATURES = {
    Database: "(self, schema, block_capacity=4096, pool_capacity=8, engine_factory=None)",
    IncrementalEngine: "(self, host)",
    ChunkScheduler: "(self, is_resident, block_of, runner)",
}

#: the second representation of engine work: not an identifier in ``src/``
#: nor in the references.  There is one unit, ``(kind, slot, extra)``.
RETIRED_WORK_FORMS = {
    "Chunk",
    "FastEntry",
    "schedule_fast",
    "fast_runner",
    "_fast_ok",
    "_run_fast",
    "chunk_only",
}

#: modules that schedule and run that unit: no closures, no catch-alls.
WORK_MODULES = ("evaluation/engine.py", "evaluation/scheduler.py")

#: the deleted switches and what hung off them: not an identifier anywhere.
RETIRED = {
    "policy",
    "Policy",
    "eager",
    "fast_path",
    "auto_batch",
    "auto_batch_transactions",
    "detect_cycles",
    "_fifo",
    "_lifo",
    "resolved_inputs",
}


#: the second rule backend and its swap, decline and unwrap machinery: not
#: an identifier in ``src/``.
RETIRED_BACKEND = {
    "_RuleInterpreter",
    "_booleanize",
    "Unsupported",
    "compile_frozen_schema",
    "__wrapped__",
}

#: the second per-name record of out-of-date marks: constraint marks live
#: in the engine's watched stale buckets (``stale_by_name``), like every
#: name a reader sweeps, so no constraint-only set is an identifier.
RETIRED_MARK_INDEXES = {"out_of_date_constraints"}


#: a schema with a rule, a constraint and a membership predicate.
BODIES_SRC = """
object class task is
  attributes effort : integer; budget : integer; slack : integer;
  rules slack = budget - effort;
  constraints fits : effort <= budget + 100;
end;
object class big_task subtype of task where effort > 10 is
  attributes flag : boolean;
  rules flag = effort > 20;
end;
"""


def _modules():
    for path in sorted(SRC.rglob("*.py")):
        yield path.relative_to(SRC).as_posix(), ast.parse(path.read_text())


def _names(tree: ast.AST) -> set[str]:
    """Every identifier the tree binds or uses, including imported names."""
    names = {_identifier(node) for node in ast.walk(tree)}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            names.update(alias.asname or alias.name for alias in node.names)
    return names


def _identifier(node: ast.AST) -> str | None:
    for field in ("id", "attr", "arg", "name"):
        value = getattr(node, field, None)
        if isinstance(value, str):
            return value
    return None


def test_the_three_constructors_take_sizing_and_one_seam():
    for cls, expected in SIGNATURES.items():
        signature = inspect.signature(cls.__init__)
        bare = signature.replace(
            parameters=[
                p.replace(annotation=inspect.Parameter.empty)
                for p in signature.parameters.values()
            ],
            return_annotation=inspect.Signature.empty,
        )
        assert str(bare) == expected, cls.__name__


def test_no_retired_switch_is_an_identifier():
    offenders = sorted(
        f"{module}:{node.lineno} {_identifier(node)}"
        for module, tree in _modules()
        for node in ast.walk(tree)
        if _identifier(node) in RETIRED
    )
    assert not offenders, f"retired configuration names are back: {offenders}"


def _probes_engine(node: ast.AST) -> bool:
    """``getattr(<...>engine, "<literal>", ...)``: asking an engine what it is."""
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id == "getattr"
        and len(node.args) >= 2
        and _identifier(node.args[0]) == "engine"
        and isinstance(node.args[1], ast.Constant)
    )


def test_no_module_probes_the_engine_for_a_method():
    offenders = sorted(
        f"{module}:{node.lineno}"
        for module, tree in _modules()
        for node in ast.walk(tree)
        if _probes_engine(node)
    )
    assert not offenders, f"getattr(engine, ...) fallbacks are back: {offenders}"


def test_engine_work_has_one_representation():
    trees = dict(_modules())
    trees["tests/references.py"] = ast.parse((REPO / "tests" / "references.py").read_text())
    offenders = sorted(
        f"{module}: {name}"
        for module, tree in trees.items()
        for name in _names(tree) & RETIRED_WORK_FORMS
    )
    assert not offenders, f"a second form of engine work is back: {offenders}"


def test_engine_schedules_each_work_kind_once_and_runs_it_one_way():
    kinds, runners = [], []
    for node in ast.walk(ast.parse((SRC / "evaluation/engine.py").read_text())):
        if not isinstance(node, ast.Call):
            continue
        if _identifier(node.func) == "schedule":
            work = node.args[0]
            assert isinstance(work, ast.Tuple), ast.unparse(node)
            kinds.append(_identifier(work.elts[0]))
        elif _identifier(node.func) == "ChunkScheduler":
            runners += [ast.unparse(kw.value) for kw in node.keywords if kw.arg == "runner"]
    assert sorted(kinds) == ["_COLLECT", "_COMPUTE", "_MARK", "_REQUEST"]
    assert runners == ["self._run"]


def _swallows_everything(node: ast.AST) -> bool:
    """``except Exception`` (or bare ``except``) that does not re-raise.

    The engine's one catch-all turns a failing rule body into a typed
    ``RuleEvaluationError``; a handler that ends without raising hides the
    failure instead.
    """
    return (
        isinstance(node, ast.ExceptHandler)
        and (node.type is None or _identifier(node.type) == "Exception")
        and not isinstance(node.body[-1], ast.Raise)
    )


def test_work_modules_carry_no_closure_and_no_catch_all():
    offenders = []
    for module in WORK_MODULES:
        for node in ast.walk(ast.parse((SRC / module).read_text())):
            if isinstance(node, ast.Lambda):
                offenders.append(f"{module}:{node.lineno} lambda")
            elif _swallows_everything(node):
                offenders.append(f"{module}:{node.lineno} catch-all")
    assert not offenders, offenders


def test_references_and_the_second_harness_stay_out_of_the_tree():
    assert not (SRC / "baselines").exists()
    assert not (REPO / "benchmarks").exists()


def test_no_second_rule_backend_is_an_identifier():
    offenders = sorted(
        f"{module}: {name}"
        for module, tree in _modules()
        for name in _names(tree) & RETIRED_BACKEND
    )
    assert not offenders, f"a second rule backend is back: {offenders}"


def _dsl_bodies(schema):
    for cls in schema.classes.values():
        for rule in cls.rules:
            yield rule.name, rule.body
        for constraint in cls.constraints:
            yield constraint.name, constraint.predicate
        if cls.predicate is not None:
            yield cls.name, cls.predicate.predicate


def test_every_dsl_body_is_compiled_from_source():
    for freeze in (False, True):
        schema = compile_schema(BODIES_SRC, freeze=freeze)
        bodies = dict(_dsl_bodies(schema))
        assert sorted(bodies) == ["big_task", "big_task.flag", "fits", "task.slack"]
        if freeze:  # the resolved rules, synthetic ones included (none fold)
            bodies.update(
                (rule.name, rule.body)
                for name in schema.classes
                for rule in schema.resolved(name).rules
            )
            assert len(bodies) == 6
        offenders = [
            name for name, body in bodies.items() if not isinstance(body, CompiledBody)
        ]
        assert not offenders, (freeze, offenders)
    query = compile_query(
        schema, "select task where effort == 3 and budget > 1 and slack < 9"
    )
    bodies = [query.predicate.fn] + [sarg.residual.fn for sarg in query.sargs]
    assert len(bodies) == 4
    assert all(isinstance(body, CompiledBody) for body in bodies)


def test_freeze_compiles_nothing():
    schema = compile_schema(BODIES_SRC, freeze=False)
    before = {name: id(body) for name, body in _dsl_bodies(schema)}
    stats = dict(schema.compile_stats)
    schema.freeze()
    assert {name: id(body) for name, body in _dsl_bodies(schema)} == before
    for key, value in stats.items():
        assert schema.compile_stats[key] == value, key


def test_no_fallback_metric():
    flat = Database(compile_schema(BODIES_SRC)).metrics().flatten()
    assert "compile.rules_compiled" in flat
    assert "compile.fallbacks" not in flat


def test_out_of_date_marks_have_one_per_name_record():
    offenders = sorted(
        f"{module}: {name}"
        for module, tree in _modules()
        for name in _names(tree) & RETIRED_MARK_INDEXES
    )
    assert not offenders, f"a second per-name mark index is back: {offenders}"
