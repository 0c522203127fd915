"""The engine ships in one configuration, measured by one harness.

``Database`` takes sizing plus ``engine_factory`` (the seam through which a
test substitutes a reference engine); the engine and the chunk scheduler
take no option at all.  The alternatives the paper argues against --
fixed FIFO/LIFO traversal orders, eager draining, everything-is-a-chunk
waves, trigger and full-recompute engines -- are references in
``tests/references.py``, and every engine a ``Database`` can hold is an
``IncrementalEngine``, so ``src/`` never probes one for a missing method.
This guard, in the style of ``test_no_environment_reads.py`` and
``test_single_structure.py``, fails when a switch, a probe, the baselines
package or the second benchmark tree comes back.
"""

import ast
import inspect
import pathlib

import repro
from repro.core.database import Database
from repro.evaluation.engine import IncrementalEngine
from repro.evaluation.scheduler import ChunkScheduler

SRC = pathlib.Path(repro.__file__).parent
REPO = pathlib.Path(__file__).parents[2]

SIGNATURES = {
    Database: "(self, schema, block_capacity=4096, pool_capacity=8, engine_factory=None)",
    IncrementalEngine: "(self, host)",
    ChunkScheduler: "(self, is_resident, block_of, fast_runner=None)",
}

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


def _modules():
    for path in sorted(SRC.rglob("*.py")):
        yield path.relative_to(SRC).as_posix(), ast.parse(path.read_text())


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


def test_references_and_the_second_harness_stay_out_of_the_tree():
    assert not (SRC / "baselines").exists()
    assert not (REPO / "benchmarks").exists()
